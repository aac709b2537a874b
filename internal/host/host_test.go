package host

import (
	"errors"
	"strings"
	"testing"

	"pond/internal/cluster"
	"pond/internal/emc"
	"pond/internal/pool"
	"pond/internal/stats"
	"pond/internal/workload"
)

var testSpec = cluster.ServerSpec{Sockets: 2, CoresPerSock: 24, MemGBPerSock: 192}

func testVM(id cluster.VMID, cores int, memGB float64) cluster.VMRequest {
	return cluster.VMRequest{
		ID:   id,
		Type: cluster.VMType{Name: "test", Cores: cores, MemoryGB: memGB},
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: 0.5,
		},
	}
}

func newHost() *Host { return New(1, testSpec, Config{PoolLatencyRatio: 1.82}) }

func TestNewHostCapacity(t *testing.T) {
	h := newHost()
	if h.FreeCores() != 48 || h.FreeLocalGB() != 384 {
		t.Fatalf("fresh host: %d cores, %g GB", h.FreeCores(), h.FreeLocalGB())
	}
	if h.OnlinePoolGB() != 0 || h.FreePoolGB() != 0 {
		t.Fatal("fresh host should have no pool memory")
	}
}

func TestPlaceVMAllLocal(t *testing.T) {
	h := newHost()
	vm := testVM(1, 4, 16)
	p, err := h.PlaceVM(vm, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.LocalGB != 16 || p.PoolGB != 0 {
		t.Fatalf("placement = %+v", p)
	}
	if _, hasZ := p.Topology.ZNUMANode(); hasZ {
		t.Fatal("all-local VM should not get a zNUMA node")
	}
	if h.FreeCores() != 44 || h.FreeLocalGB() != 368 {
		t.Fatalf("capacity accounting wrong: %d cores, %g GB", h.FreeCores(), h.FreeLocalGB())
	}
	if !p.AccelEnabled {
		t.Fatal("acceleration must be on at start (G2)")
	}
}

func TestPlaceVMWithZNUMA(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(32)
	vm := testVM(2, 8, 32)
	p, err := h.PlaceVM(vm, 24, 8, []pool.SliceRef{{EMC: 0, Slice: 1}})
	if err != nil {
		t.Fatal(err)
	}
	zi, hasZ := p.Topology.ZNUMANode()
	if !hasZ {
		t.Fatal("pool-backed VM must see a zNUMA node")
	}
	if p.Topology.Nodes[zi].MemGB != 8 {
		t.Fatalf("zNUMA size = %g, want 8", p.Topology.Nodes[zi].MemGB)
	}
	if h.FreePoolGB() != 24 {
		t.Fatalf("pool free = %g, want 24", h.FreePoolGB())
	}
}

func TestPlaceVMUnderAllocationRejected(t *testing.T) {
	h := newHost()
	if _, err := h.PlaceVM(testVM(1, 4, 16), 8, 0, nil); err == nil {
		t.Fatal("under-allocation accepted; memory must be fully preallocated (G2)")
	}
}

func TestPlaceVMDuplicateRejected(t *testing.T) {
	h := newHost()
	vm := testVM(1, 2, 8)
	if _, err := h.PlaceVM(vm, 8, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PlaceVM(vm, 8, 0, nil); err == nil {
		t.Fatal("duplicate placement accepted")
	}
}

func TestPlaceVMInsufficientPool(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(4)
	_, err := h.PlaceVM(testVM(1, 2, 16), 8, 8, nil)
	if !errors.Is(err, ErrNoPoolCapacity) {
		t.Fatalf("err = %v, want ErrNoPoolCapacity", err)
	}
}

func TestPlaceVMSingleNUMANode(t *testing.T) {
	// 24 cores per socket: a 16-core VM fits, two of them must land on
	// different sockets, and a third 16-core VM still fits (8+8 free).
	h := newHost()
	p1, err := h.PlaceVM(testVM(1, 16, 64), 64, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := h.PlaceVM(testVM(2, 16, 64), 64, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Node == p2.Node {
		t.Fatal("second 16-core VM should spill to the other socket")
	}
	// Now each socket has 8 free cores; a 16-core VM must be rejected
	// even though 16 cores exist host-wide: VMs never span sockets.
	if _, err := h.PlaceVM(testVM(3, 16, 32), 32, 0, nil); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("cross-socket placement = %v, want ErrNoCapacity", err)
	}
}

func TestReleaseVM(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(16)
	refs := []pool.SliceRef{{EMC: 0, Slice: 3}, {EMC: 0, Slice: 4}}
	if _, err := h.PlaceVM(testVM(1, 4, 16), 14, 2, refs); err != nil {
		t.Fatal(err)
	}
	p, err := h.ReleaseVM(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Slices) != 2 {
		t.Fatalf("released slices = %d", len(p.Slices))
	}
	if h.FreeCores() != 48 || h.FreeLocalGB() != 384 || h.FreePoolGB() != 16 {
		t.Fatal("release did not restore capacity")
	}
	if _, err := h.ReleaseVM(1); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("double release = %v", err)
	}
}

func TestReconfigure(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(16)
	refs := make([]pool.SliceRef, 16)
	for i := range refs {
		refs[i] = pool.SliceRef{EMC: i % 2, Slice: emc.SliceID(i)}
	}
	if _, err := h.PlaceVM(testVM(1, 4, 32), 16, 16, refs); err != nil {
		t.Fatal(err)
	}
	dur, freed, err := h.Reconfigure(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != 16 || freed[15] != refs[15] {
		t.Fatalf("freed slices = %v, want the placement's 16", freed)
	}
	// The freed pool memory stays online, unused, until offlined.
	if h.FreePoolGB() != 16 || h.OnlinePoolGB() != 16 {
		t.Fatalf("pool free/online = %g/%g, want 16/16", h.FreePoolGB(), h.OnlinePoolGB())
	}
	// 50 ms per GB of pool memory.
	if dur != 16*ReconfigSecPerGB {
		t.Fatalf("duration = %v, want %v", dur, 16*ReconfigSecPerGB)
	}
	p, _ := h.Placement(1)
	if p.PoolGB != 0 || p.LocalGB != 32 || p.Slices != nil {
		t.Fatalf("post-reconfig placement = %+v", p)
	}
	if !p.AccelEnabled {
		t.Fatal("acceleration must be re-enabled")
	}
	if _, hasZ := p.Topology.ZNUMANode(); hasZ {
		t.Fatal("topology should lose the zNUMA node")
	}
	if !p.Reconfigured {
		t.Fatal("Reconfigured flag not set")
	}
}

func TestReconfigureIsOneTime(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(8)
	h.PlaceVM(testVM(1, 2, 16), 8, 8, nil)
	if _, _, err := h.Reconfigure(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Reconfigure(1); err == nil {
		t.Fatal("second reconfiguration accepted; mitigation is one-time (§4.2)")
	}
}

func TestReconfigureNeedsLocalHeadroom(t *testing.T) {
	h := New(1, cluster.ServerSpec{Sockets: 1, CoresPerSock: 8, MemGBPerSock: 16}, Config{})
	h.AddPoolCapacity(16)
	if _, err := h.PlaceVM(testVM(1, 2, 24), 12, 12, nil); err != nil {
		t.Fatal(err)
	}
	// Node has 4 GB local free < 12 GB pool: cannot reconfigure.
	if _, _, err := h.Reconfigure(1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestReconfigureAllLocalNoop(t *testing.T) {
	h := newHost()
	h.PlaceVM(testVM(1, 2, 8), 8, 0, nil)
	dur, freed, err := h.Reconfigure(1)
	if err != nil || dur != 0 || freed != nil {
		t.Fatalf("all-local reconfig = %v %v %v", dur, freed, err)
	}
}

func TestStrandedGB(t *testing.T) {
	h := New(1, cluster.ServerSpec{Sockets: 2, CoresPerSock: 4, MemGBPerSock: 32}, Config{})
	if h.StrandedGB() != 0 {
		t.Fatal("fresh host strands nothing")
	}
	// Fill node 0's cores with a 4-core VM using 8 GB: 24 GB stranded.
	if _, err := h.PlaceVM(testVM(1, 4, 8), 8, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.StrandedGB(); got != 24 {
		t.Fatalf("stranded = %g, want 24", got)
	}
	// Second node still has free cores: its memory is not stranded.
	if _, err := h.PlaceVM(testVM(2, 2, 4), 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.StrandedGB(); got != 24 {
		t.Fatalf("stranded after partial node = %g, want 24", got)
	}
}

func TestHostAgentPartitionContainment(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(8)
	if err := h.AllocateHostAgent(1, true); !errors.Is(err, ErrPartition) {
		t.Fatalf("pool-partition host-agent alloc = %v, want ErrPartition", err)
	}
	if err := h.AllocateHostAgent(1, false); err != nil {
		t.Fatalf("local host-agent alloc failed: %v", err)
	}
	if h.FreeLocalGB() != 383 {
		t.Fatalf("local free = %g", h.FreeLocalGB())
	}
	if h.FreePoolGB() != 8 {
		t.Fatal("pool partition must be untouched by host agents")
	}
}

func TestRemovePoolCapacity(t *testing.T) {
	h := newHost()
	h.AddPoolCapacity(8)
	if err := h.RemovePoolCapacity(4); err != nil {
		t.Fatal(err)
	}
	if h.OnlinePoolGB() != 4 {
		t.Fatalf("online = %g", h.OnlinePoolGB())
	}
	if err := h.RemovePoolCapacity(8); err == nil {
		t.Fatal("removing in-use capacity accepted")
	}
}

func TestGuestCommittedOverestimates(t *testing.T) {
	h := newHost()
	vm := testVM(1, 4, 16) // untouched 0.5 => touched 8 GB
	h.PlaceVM(vm, 16, 0, nil)
	got, err := h.GuestCommittedGB(1)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 8 || got > 16 {
		t.Fatalf("committed = %g, want in (8, 16]", got)
	}
	if _, err := h.GuestCommittedGB(99); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown VM = %v", err)
	}
}

func TestVMsList(t *testing.T) {
	h := newHost()
	h.PlaceVM(testVM(1, 2, 8), 8, 0, nil)
	h.PlaceVM(testVM(2, 2, 8), 8, 0, nil)
	if got := len(h.VMs()); got != 2 {
		t.Fatalf("VMs = %d", got)
	}
}

func TestPageTablesOptIn(t *testing.T) {
	fast := New(1, testSpec, Config{})
	p, _ := fast.PlaceVM(testVM(1, 2, 8), 8, 0, nil)
	if p.PageTable != nil {
		t.Fatal("page tables allocated without opt-in")
	}
	slow := New(2, testSpec, Config{EnablePageTables: true})
	p2, _ := slow.PlaceVM(testVM(2, 2, 8), 8, 0, nil)
	if p2.PageTable == nil {
		t.Fatal("page tables missing with opt-in")
	}
}

func TestTopologyString(t *testing.T) {
	topo := NewTopology(4, 24, 8, 1.82)
	s := topo.String()
	for _, want := range []string{"available: 2 nodes", "node 0 cpus: 0 1 2 3", "node 1 cpus:\n", "node 1 size: 8192 MB", "node distances"} {
		if !strings.Contains(s, want) {
			t.Fatalf("topology rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTopologySLITDistances(t *testing.T) {
	topo := NewTopology(2, 8, 8, 1.82)
	if topo.SLIT[0][0] != 10 || topo.SLIT[1][1] != 10 {
		t.Fatal("self distance must be 10")
	}
	if topo.SLIT[0][1] != 18 {
		t.Fatalf("zNUMA distance = %d, want 18 (1.82 ratio)", topo.SLIT[0][1])
	}
}

func TestTopologyTotalMem(t *testing.T) {
	topo := NewTopology(2, 8, 4, 1.5)
	if topo.TotalMemGB() != 12 {
		t.Fatalf("total = %g", topo.TotalMemGB())
	}
}

func TestPageTableTouchAndScan(t *testing.T) {
	pt := NewPageTable(1) // 1 GB => 16 pages of 64 MB
	if pt.Pages() != 16 {
		t.Fatalf("pages = %d, want 16", pt.Pages())
	}
	pt.TouchRange(0, 0.5)
	frac := pt.Scan()
	if frac != 0.5 {
		t.Fatalf("scan frac = %v, want 0.5", frac)
	}
	// Access bits reset; ever-bits persist.
	if got := pt.Scan(); got != 0 {
		t.Fatalf("second scan = %v, want 0", got)
	}
	if pt.UntouchedFrac() != 0.5 {
		t.Fatalf("untouched = %v, want 0.5", pt.UntouchedFrac())
	}
	if pt.Scans() != 2 {
		t.Fatalf("scans = %d", pt.Scans())
	}
}

func TestPageTableTouchOutOfRangeIgnored(t *testing.T) {
	pt := NewPageTable(1)
	pt.Touch(5)    // beyond the VM
	pt.Touch(-0.5) // negative
	if pt.UntouchedFrac() != 1 {
		t.Fatal("out-of-range touches mutated the table")
	}
}

func TestPageTableBitmapCopy(t *testing.T) {
	pt := NewPageTable(1)
	pt.Touch(0)
	bm := pt.AccessBitmap()
	bm[0] = false
	if pt.UntouchedFrac() == 1 {
		t.Fatal("AccessBitmap aliases internal state")
	}
}

func TestDefaultLatencyRatio(t *testing.T) {
	h := New(1, testSpec, Config{})
	h.AddPoolCapacity(8)
	p, err := h.PlaceVM(testVM(1, 2, 8), 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topology.SLIT[0][1] != 18 {
		t.Fatalf("default ratio distance = %d, want 18", p.Topology.SLIT[0][1])
	}
}

func TestPageTableWithWorkloadAccessTrace(t *testing.T) {
	// Drive the hypervisor's access bits with a realistic Zipf access
	// stream: a skewed workload leaves cold pages untouched, and the
	// scan picture converges as accesses accumulate.
	w, ok := workload.ByName("gapbs-bc-twitter")
	if !ok {
		t.Fatal("missing workload")
	}
	pt := NewPageTable(16) // 256 pages of 64 MB
	r := stats.NewRand(3)
	trace := w.AccessTrace(pt.Pages(), 400, r)
	for _, page := range trace {
		pt.Touch(float64(page) * PageMB / 1024)
	}
	untouched := pt.UntouchedFrac()
	if untouched <= 0 || untouched >= 1 {
		t.Fatalf("untouched = %v; a skewed trace should leave cold pages", untouched)
	}
	// The analytic expectation should be in the same ballpark as the
	// simulated scan.
	want := 1 - w.TouchedPagesFrac(pt.Pages(), 400)
	if diff := untouched - want; diff > 0.15 || diff < -0.15 {
		t.Fatalf("untouched %v far from analytic %v", untouched, want)
	}
}
