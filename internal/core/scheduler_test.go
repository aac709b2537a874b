package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"pond/internal/cluster"
	"pond/internal/emc"
	"pond/internal/host"
	"pond/internal/pool"
	"pond/internal/stats"
)

// schedVM builds a VM with explicit cores (unlike testVM, whose second
// argument is the customer id).
func schedVM(id cluster.VMID, cores int, memGB float64, wname string) cluster.VMRequest {
	vm := testVM(id, 1, memGB, wname)
	vm.Type.Cores = cores
	return vm
}

func newTestScheduler(t *testing.T, hosts int, poolGB int) (*ClusterScheduler, *pool.Manager) {
	t.Helper()
	spec := cluster.ServerSpec{Sockets: 2, CoresPerSock: 8, MemGBPerSock: 64}
	hs := make([]*host.Host, hosts)
	for i := range hs {
		hs[i] = host.New(emc.HostID(i), spec, host.Config{})
	}
	var pm *pool.Manager
	if poolGB > 0 {
		pm = pool.NewManager([]*emc.Device{emc.NewDevice("emc0", poolGB, hosts)}, stats.NewRand(1))
	}
	return NewClusterScheduler(hs, pm), pm
}

func TestSchedulerPanicsWithoutHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClusterScheduler(nil, nil)
}

func TestSchedulerPlacesAllLocal(t *testing.T) {
	cs, _ := newTestScheduler(t, 2, 64)
	vm := schedVM(1, 4, 16, "P5-web")
	res, err := cs.Place(vm, Decision{Kind: AllLocal, LocalGB: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostIndex < 0 || res.Placement.PoolGB != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSchedulerTightPacking(t *testing.T) {
	cs, _ := newTestScheduler(t, 2, 0)
	// First VM makes host 0 the tighter host; the second should follow.
	r1, err := cs.Place(schedVM(1, 4, 16, "P5-web"), Decision{Kind: AllLocal, LocalGB: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cs.Place(schedVM(2, 4, 16, "P5-web"), Decision{Kind: AllLocal, LocalGB: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.HostIndex != r2.HostIndex {
		t.Fatalf("tight packing violated: %d vs %d", r1.HostIndex, r2.HostIndex)
	}
}

func TestSchedulerOnlinesPoolCapacity(t *testing.T) {
	cs, pm := newTestScheduler(t, 2, 64)
	vm := schedVM(1, 4, 32, "P2-database")
	res, err := cs.Place(vm, Decision{Kind: ZNUMA, LocalGB: 20, PoolGB: 12}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.PoolGB != 12 || len(res.Placement.Slices) != 12 {
		t.Fatalf("pool backing = %g GB, %d slices", res.Placement.PoolGB, len(res.Placement.Slices))
	}
	if pm.FreeGB(0) != 52 {
		t.Fatalf("pool free = %d, want 52", pm.FreeGB(0))
	}
	if cs.Hosts()[res.HostIndex].OnlinePoolGB() != 12 {
		t.Fatal("host did not online the capacity")
	}
}

func TestSchedulerFallsBackWhenPoolExhausted(t *testing.T) {
	cs, _ := newTestScheduler(t, 1, 4)
	vm := schedVM(1, 2, 32, "P2-database")
	res, err := cs.Place(vm, Decision{Kind: ZNUMA, LocalGB: 16, PoolGB: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBackToLocal {
		t.Fatal("expected all-local fallback")
	}
	if res.Placement.PoolGB != 0 || res.Placement.LocalGB != 32 {
		t.Fatalf("fallback placement = %+v", res.Placement)
	}
}

func TestSchedulerFallsBackWithoutManager(t *testing.T) {
	cs, _ := newTestScheduler(t, 1, 0)
	res, err := cs.Place(schedVM(1, 2, 16, "P5-web"), Decision{Kind: ZNUMA, LocalGB: 8, PoolGB: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBackToLocal || res.Placement.PoolGB != 0 {
		t.Fatalf("no-manager fallback = %+v", res)
	}
}

func TestSchedulerNoHostFits(t *testing.T) {
	cs, _ := newTestScheduler(t, 1, 0)
	_, err := cs.Place(schedVM(1, 64, 16, "P5-web"), Decision{Kind: AllLocal, LocalGB: 16}, 0)
	if !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestSchedulerPoolHeavyRetriesAllLocal(t *testing.T) {
	// A decision with more local than any host has free must retry as
	// all-local if that fits... here it cannot, so the error surfaces.
	cs, _ := newTestScheduler(t, 1, 64)
	vm := schedVM(1, 2, 200, "P5-web")
	if _, err := cs.Place(vm, Decision{Kind: ZNUMA, LocalGB: 190, PoolGB: 10}, 0); err == nil {
		t.Fatal("oversized VM accepted")
	}
}

func TestSchedulerRelease(t *testing.T) {
	cs, pm := newTestScheduler(t, 2, 64)
	vm := schedVM(1, 4, 32, "P2-database")
	res, err := cs.Place(vm, Decision{Kind: ZNUMA, LocalGB: 24, PoolGB: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Release(res.HostIndex, 1, 10); err != nil {
		t.Fatal(err)
	}
	// Slices drain back asynchronously.
	if free := pm.FreeGB(11); free != 64 {
		t.Fatalf("pool free after drain = %d, want 64", free)
	}
	if cs.Hosts()[res.HostIndex].OnlinePoolGB() != 0 {
		t.Fatal("host kept pool capacity online")
	}
	if _, err := cs.Release(99, 1, 0); err == nil {
		t.Fatal("bad host index accepted")
	}
}

func TestSchedulerHandleHostFailure(t *testing.T) {
	cs, pm := newTestScheduler(t, 2, 64)
	for i := 1; i <= 3; i++ {
		vm := schedVM(cluster.VMID(i), 2, 16, "P2-database")
		if _, err := cs.Place(vm, Decision{Kind: ZNUMA, LocalGB: 12, PoolGB: 4}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Tight packing put all three on one host; fail it.
	lost, reclaimed, err := cs.HandleHostFailure(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 3 {
		t.Fatalf("lost %d VMs, want 3", len(lost))
	}
	if reclaimed != 12 {
		t.Fatalf("reclaimed %d GB, want 12", reclaimed)
	}
	// The reclaimed capacity is immediately reusable by host 1.
	if free := pm.FreeGB(0); free != 64 {
		t.Fatalf("pool free = %d, want 64", free)
	}
	if _, _, err := cs.HandleHostFailure(9); err == nil {
		t.Fatal("bad host index accepted")
	}
}

// TestSchedulerHostFailureDrainsHost checks that a failed host returns
// its lost VMs in id order and is skipped by Place and Migrate after.
func TestSchedulerHostFailureDrainsHost(t *testing.T) {
	cs, _ := newTestScheduler(t, 2, 64)
	var want []cluster.VMID
	for i := 1; i <= 12; i++ {
		vm := schedVM(cluster.VMID(i), 1, 4, "P2-database")
		res, err := cs.Place(vm, Decision{Kind: AllLocal, LocalGB: 4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostIndex != 0 {
			t.Fatalf("vm %d packed onto host %d, want host 0", i, res.HostIndex)
		}
		want = append(want, cluster.VMID(i))
	}
	lost, _, err := cs.HandleHostFailure(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lost, want) {
		t.Fatalf("lost %v, want %v in id order", lost, want)
	}
	if !cs.Drained(0) {
		t.Fatal("failed host not drained")
	}
	// Both hosts now have every core free, so only the drain keeps the
	// next VM off host 0, and host 1's VM has nowhere to migrate.
	res, err := cs.Place(schedVM(13, 1, 4, "P2-database"), Decision{Kind: AllLocal, LocalGB: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostIndex != 1 {
		t.Fatalf("vm placed on host %d after host 0 failed, want 1", res.HostIndex)
	}
	if _, _, err := cs.Migrate(1, 13, 2); !errors.Is(err, ErrNoHost) {
		t.Fatalf("migration off the last live host: %v, want ErrNoHost", err)
	}
}

// TestSchedulerFractionalAllPoolTakesWholeSlices places an all-pool VM of
// fractional size: the grant rounds up to whole slices, and the release
// returns all of them.
func TestSchedulerFractionalAllPoolTakesWholeSlices(t *testing.T) {
	cs, pm := newTestScheduler(t, 2, 64)
	vm := schedVM(1, 2, 16.5, "P1-video")
	res, err := cs.Place(vm, Decision{Kind: AllPool, PoolGB: 16.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBackToLocal || res.Placement.PoolGB != 16.5 || len(res.Placement.Slices) != 17 {
		t.Fatalf("placement: fallback %v, %v GB pool on %d slices; want 16.5 GB on 17 slices",
			res.FellBackToLocal, res.Placement.PoolGB, len(res.Placement.Slices))
	}
	if free := pm.FreeGB(0); free != 64-17 {
		t.Fatalf("pool free = %d, want %d", free, 64-17)
	}
	if _, err := cs.Release(res.HostIndex, 1, 10); err != nil {
		t.Fatal(err)
	}
	if free := pm.FreeGB(11); free != 64 {
		t.Fatalf("pool free after drain = %d, want 64", free)
	}
	if cs.Hosts()[res.HostIndex].OnlinePoolGB() != 0 {
		t.Fatal("host kept pool capacity online")
	}
}

func TestSchedulerSkipsDrainedHosts(t *testing.T) {
	cs, _ := newTestScheduler(t, 2, 0)
	if err := cs.SetDrained(0, true); err != nil {
		t.Fatal(err)
	}
	if !cs.Drained(0) || cs.Drained(1) {
		t.Fatal("drain flags wrong")
	}
	for i := 0; i < 3; i++ {
		vm := schedVM(cluster.VMID(100+i), 4, 16, "P5-web")
		res, err := cs.Place(vm, Decision{Kind: AllLocal, LocalGB: 16}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostIndex != 1 {
			t.Fatalf("placement landed on drained host %d", res.HostIndex)
		}
	}
	// Undrain restores the host.
	if err := cs.SetDrained(0, false); err != nil {
		t.Fatal(err)
	}
	if cs.Drained(0) {
		t.Fatal("host 0 still drained")
	}
	if err := cs.SetDrained(5, true); err == nil {
		t.Fatal("out-of-range drain should fail")
	}
}

func TestSchedulerAllDrainedRejects(t *testing.T) {
	cs, _ := newTestScheduler(t, 1, 0)
	_ = cs.SetDrained(0, true)
	vm := schedVM(200, 2, 8, "P5-web")
	if _, err := cs.Place(vm, Decision{Kind: AllLocal, LocalGB: 8}, 0); !errors.Is(err, ErrNoHost) {
		t.Fatalf("want ErrNoHost, got %v", err)
	}
}

func TestDrainHostTriesAllCandidates(t *testing.T) {
	// Host 1 fits the 12 GB VM in aggregate (8+8 free) but on no single
	// NUMA node; host 2 has a whole node free. The drain must fall
	// through host 1's failed LiveMigrate and land the VM on host 2.
	cs, _ := newTestScheduler(t, 3, 0)
	hs := cs.Hosts()
	target := schedVM(1, 1, 12, "P5-web")
	if _, err := hs[0].PlaceVM(target, 12, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i, fill := range []cluster.VMID{10, 11} {
		if _, err := hs[1].PlaceVM(schedVM(fill, 1, 56, "P5-web"), 56, 0, nil); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := hs[2].PlaceVM(schedVM(12, 1, 56, "P5-web"), 56, 0, nil); err != nil {
		t.Fatal(err)
	}

	migrations, remaining, err := cs.DrainHost(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != 0 {
		t.Fatalf("VM left on draining host: remaining=%v", remaining)
	}
	if len(migrations) != 1 || migrations[0].VM != 1 || migrations[0].Target != 2 {
		t.Fatalf("migrations = %+v, want VM 1 -> host 2", migrations)
	}
}

func TestFailEMCReleasesBlastRadiusInIDOrder(t *testing.T) {
	spec := cluster.ServerSpec{Sockets: 2, CoresPerSock: 8, MemGBPerSock: 64}
	hs := []*host.Host{host.New(0, spec, host.Config{}), host.New(1, spec, host.Config{})}
	devs := []*emc.Device{emc.NewDevice("emc0", 16, 2), emc.NewDevice("emc1", 16, 2)}
	pm := pool.NewManager(devs, stats.NewRand(1))
	cs := NewClusterScheduler(hs, pm)
	// Eight-core VMs fill one socket each, so tight packing puts VMs 3
	// and 1 on host 0 and VMs 2 and 4 on host 1. The grants fill from
	// the EMC with the most free slices: VM 3 takes 4 GB of emc0, VM 1
	// all 16 GB of emc1 and 4 more of emc0, VM 2 4 GB of emc0.
	for _, v := range []struct {
		id            cluster.VMID
		local, pooled float64
	}{{3, 28, 4}, {1, 20, 20}, {2, 12, 4}, {4, 16, 0}} {
		d := Decision{Kind: ZNUMA, LocalGB: v.local, PoolGB: v.pooled}
		if v.pooled == 0 {
			d.Kind = AllLocal
		}
		if _, err := cs.Place(schedVM(v.id, 8, v.local+v.pooled, "P5-web"), d, 0); err != nil {
			t.Fatal(err)
		}
	}

	released, err := cs.FailEMC(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	var ids []cluster.VMID
	for _, p := range released {
		ids = append(ids, p.VM.ID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("released VMs %v, want [1 2 3]", ids)
	}
	if !devs[0].Failed() {
		t.Fatal("emc0 not failed")
	}
	for i, h := range hs {
		if h.OnlinePoolGB() != 0 {
			t.Fatalf("host %d keeps %g GB of pool online", i, h.OnlinePoolGB())
		}
	}
	if _, ok := hs[1].Placement(4); !ok {
		t.Fatal("all-local VM 4 lost to the EMC failure")
	}
	// Only VM 1's 16 slices on the healthy emc1 drain back; emc0's are
	// gone with the device.
	if got := pm.PendingGB(10); got != 16 {
		t.Fatalf("pending release = %d GB, want 16", got)
	}
	if got := pm.FreeGB(11); got != 16 {
		t.Fatalf("free after the offline = %d GB, want 16", got)
	}

	if _, err := cs.FailEMC(2, 10); err == nil {
		t.Fatal("out-of-range EMC accepted")
	}
	if _, err := cs.FailEMC(-1, 10); err == nil {
		t.Fatal("negative EMC accepted")
	}
	noPool, _ := newTestScheduler(t, 1, 0)
	if _, err := noPool.FailEMC(0, 0); err == nil {
		t.Fatal("EMC failure without a pool manager accepted")
	}
}

func TestMigrateTriesNextHost(t *testing.T) {
	// Host 1 fits the 12 GB VM in aggregate (8+8 free) but on no single
	// NUMA node, so LiveMigrate refuses it; host 2 has a whole node free.
	cs, pm := newTestScheduler(t, 3, 64)
	hs := cs.Hosts()
	res, err := pm.AddCapacity(0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs[0].AddPoolCapacity(4)
	if _, err := hs[0].PlaceVM(schedVM(1, 1, 12, "P5-web"), 8, 4, res.Slices); err != nil {
		t.Fatal(err)
	}
	for _, fill := range []cluster.VMID{10, 11} {
		if _, err := hs[1].PlaceVM(schedVM(fill, 1, 56, "P5-web"), 56, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs[2].PlaceVM(schedVM(12, 1, 56, "P5-web"), 56, 0, nil); err != nil {
		t.Fatal(err)
	}

	target, copySec, err := cs.Migrate(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if target != 2 || math.Abs(copySec-12*host.ReconfigSecPerGB) > 1e-9 {
		t.Fatalf("migrated to host %d in %g s, want host 2 in %g s", target, copySec, 12*host.ReconfigSecPerGB)
	}
	if p, ok := hs[2].Placement(1); !ok || p.PoolGB != 0 || p.Slices != nil {
		t.Fatalf("target placement = %+v, want all-local", p)
	}
	if hs[0].OnlinePoolGB() != 0 {
		t.Fatal("source host kept the VM's pool capacity online")
	}
	if got := pm.PendingGB(5); got != 4 {
		t.Fatalf("pending release = %d GB, want the VM's 4", got)
	}

	// Nowhere left to go: host 0 is drained and host 1 still fits no
	// node.
	if err := cs.SetDrained(0, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Migrate(2, 1, 6); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
	if _, _, err := cs.Migrate(2, 99, 6); !errors.Is(err, host.ErrUnknownVM) {
		t.Fatalf("unknown VM: err = %v, want host.ErrUnknownVM", err)
	}
	if _, _, err := cs.Migrate(3, 1, 6); err == nil {
		t.Fatal("out-of-range host accepted")
	}
}

func TestReconfigureReturnsSlicesOnce(t *testing.T) {
	cs, pm := newTestScheduler(t, 1, 64)
	res, err := cs.Place(schedVM(1, 2, 16, "505.mcf_r"), Decision{Kind: ZNUMA, LocalGB: 8, PoolGB: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	copySec, err := cs.Reconfigure(res.HostIndex, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(copySec-8*host.ReconfigSecPerGB) > 1e-9 {
		t.Fatalf("copy = %g s, want %g", copySec, 8*host.ReconfigSecPerGB)
	}
	h := cs.Hosts()[res.HostIndex]
	p, _ := h.Placement(1)
	if p.PoolGB != 0 || len(p.Slices) != 0 {
		t.Fatalf("placement after reconfiguration = %+v, want no pool memory and no slices", p)
	}
	if h.OnlinePoolGB() != 0 {
		t.Fatalf("host keeps %g GB of pool online", h.OnlinePoolGB())
	}
	if got := pm.PendingGB(5); got != 8 {
		t.Fatalf("pending release = %d GB, want 8", got)
	}
	// The slices left with the reconfiguration: stopping the VM returns
	// nothing more.
	if _, err := cs.Release(res.HostIndex, 1, 5); err != nil {
		t.Fatalf("release after reconfiguration: %v", err)
	}
	if got := pm.PendingGB(5); got != 8 {
		t.Fatalf("pending release after stop = %d GB, want 8", got)
	}
	if _, err := cs.Reconfigure(5, 1, 5); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if _, err := cs.Reconfigure(res.HostIndex, 1, 5); !errors.Is(err, host.ErrUnknownVM) {
		t.Fatalf("stopped VM: err = %v, want host.ErrUnknownVM", err)
	}
}
