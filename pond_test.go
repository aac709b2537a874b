package pond

import (
	"slices"
	"strings"
	"testing"

	"pond/internal/cluster"
)

// Helpers keeping the cluster dependency localized to the replay test.
func clusterGenConfigForReplay() cluster.GenConfig {
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 1
	cfg.Days = 4
	cfg.ServersPerCluster = 6
	cfg.Seed = 77
	return cfg
}

func clusterGenerate(cfg cluster.GenConfig) []cluster.Trace { return cluster.Generate(cfg) }

func newTestSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UsePredictions = false // fast default for plumbing tests
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := DefaultConfig()
	cfg.PoolGB = 1
	cfg.EMCs = 4
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("pool smaller than EMC count accepted")
	}
}

func TestStartVMAllLocalWithoutPredictions(t *testing.T) {
	sys := newTestSystem(t)
	vm, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "redis-ycsb-a"})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Decision != "all-local" || vm.PoolGB != 0 {
		t.Fatalf("no-prediction VM = %+v, want all-local", vm)
	}
	if vm.SlowdownFrac != 0 {
		t.Fatalf("all-local slowdown = %v", vm.SlowdownFrac)
	}
	st := sys.Stats()
	if st.RunningVMs != 1 {
		t.Fatalf("running = %d", st.RunningVMs)
	}
}

func TestStartVMUnknownWorkload(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.StartVM(VMSpec{Cores: 2, MemoryGB: 8, Workload: "not-a-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStartVMDefaultWorkload(t *testing.T) {
	sys := newTestSystem(t)
	vm, err := sys.StartVM(VMSpec{Cores: 2, MemoryGB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if vm.ID == 0 {
		t.Fatal("no VM id assigned")
	}
}

func TestStopVMRestoresCapacity(t *testing.T) {
	sys := newTestSystem(t)
	before := sys.Stats()
	vm, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "redis-ycsb-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StopVM(vm.ID); err != nil {
		t.Fatal(err)
	}
	after := sys.Stats()
	if after.RunningVMs != 0 || after.LocalFreeGB != before.LocalFreeGB {
		t.Fatalf("capacity not restored: %+v vs %+v", after, before)
	}
	if err := sys.StopVM(vm.ID); err == nil {
		t.Fatal("double stop accepted")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 1
	cfg.CoresPerSocket = 4
	cfg.UsePredictions = false
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "P5-web"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "P5-web"}); err != nil {
		t.Fatal(err) // second socket
	}
	if _, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "P5-web"}); err != ErrNoCapacity {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestPredictionsProduceZNUMA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build customer history: several prior VMs with stable 50%
	// untouched memory, stopped to record outcomes.
	for i := 0; i < 4; i++ {
		vm, err := sys.StartVM(VMSpec{
			Cores: 4, MemoryGB: 16, Workload: "P2-database",
			Customer: 7, UntouchedFrac: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.AdvanceSeconds(3600)
		if err := sys.StopVM(vm.ID); err != nil {
			t.Fatal(err)
		}
	}
	// The next VM from customer 7 should get a zNUMA node sized from
	// history (P25 = 0.5 => ~45% pool) or go all-pool if the forest
	// finds the database workload insensitive.
	vm, err := sys.StartVM(VMSpec{
		Cores: 4, MemoryGB: 16, Workload: "P2-database",
		Customer: 7, UntouchedFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.PoolGB == 0 {
		t.Fatalf("history-rich VM got no pool memory: %+v", vm)
	}
	if !strings.Contains(vm.Topology, "node") {
		t.Fatal("missing topology rendering")
	}
	// zNUMA VMs with correct predictions see only metadata traffic.
	if vm.Decision == "zNUMA" && vm.ZNUMATrafficFrac > 0.01 {
		t.Fatalf("zNUMA traffic = %v, want metadata-level", vm.ZNUMATrafficFrac)
	}
}

// mitigatedSystem builds a seed-5 system whose QoS sweep reconfigures a
// pool-backed mcf VM, the only VM left running. It returns the system,
// that VM's id and the sweep's reports.
func mitigatedSystem(t *testing.T) (*System, int64, []MitigationReport) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UsePredictions = true
	cfg.Seed = 5
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force a bad placement by building history for a sensitive
	// workload customer, then relying on QoS to catch any all-pool or
	// spilling decision. Run several customers to get at least one
	// pool-using VM.
	var pooled int64
	for c := int32(1); c <= 6 && pooled == 0; c++ {
		for i := 0; i < 4; i++ {
			vm, err := sys.StartVM(VMSpec{
				Cores: 2, MemoryGB: 16, Workload: "505.mcf_r",
				Customer: c, UntouchedFrac: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys.AdvanceSeconds(600)
			if vm.PoolGB > 0 {
				pooled = vm.ID
				break
			}
			sys.StopVM(vm.ID)
		}
	}
	if pooled == 0 {
		t.Skip("no pool-backed placement materialized; nothing to mitigate")
	}
	reports := sys.RunQoSSweep()
	// mcf with 10% untouched memory spills badly; the monitor should
	// flag and reconfigure it.
	for _, rep := range reports {
		if rep.VM == pooled && rep.Reconfigured {
			return sys, pooled, reports
		}
	}
	t.Fatalf("mcf VM not mitigated: %+v", reports)
	return nil, 0, nil
}

func TestQoSSweepMitigatesSensitiveAllPool(t *testing.T) {
	sys, pooled, reports := mitigatedSystem(t)
	for _, rep := range reports {
		if rep.VM == pooled && rep.CopySeconds <= 0 {
			t.Fatal("reconfiguration without copy cost")
		}
	}
	vm, ok := sys.VMInfo(pooled)
	if !ok || vm.PoolGB != 0 {
		t.Fatalf("post-mitigation VM = %+v", vm)
	}
	if sys.Stats().Mitigations == 0 {
		t.Fatal("mitigation counter not updated")
	}
}

// TestStopVMAfterMitigation: the reconfiguration already offlined and
// released the VM's slices, so stopping it later succeeds and records
// its outcome.
func TestStopVMAfterMitigation(t *testing.T) {
	sys, id, _ := mitigatedSystem(t)
	vm, _ := sys.VMInfo(id)
	customer := cluster.CustomerID(vm.Spec.Customer)
	before := sys.store.OutcomeCount(customer)
	if err := sys.StopVM(id); err != nil {
		t.Fatalf("StopVM after mitigation: %v", err)
	}
	if got := sys.store.OutcomeCount(customer); got != before+1 {
		t.Fatalf("outcomes of customer %d went %d -> %d, want one more", customer, before, got)
	}
	if _, ok := sys.store.MeanCounters(cluster.VMID(id)); ok {
		t.Fatal("the stopped VM's samples were kept")
	}
}

// TestDrainHostAfterMitigation: draining a reconfigured VM's host moves
// it without queueing its already released slices a second time.
func TestDrainHostAfterMitigation(t *testing.T) {
	sys, id, _ := mitigatedSystem(t)
	vm, _ := sys.VMInfo(id)
	before := sys.manager.PendingGB(sys.Now())
	migrated, _, err := sys.DrainHost(vm.Host)
	if err != nil {
		t.Fatal(err)
	}
	if len(migrated) != 1 || migrated[0] != id {
		t.Fatalf("migrated %v, want [%d]", migrated, id)
	}
	if after := sys.manager.PendingGB(sys.Now()); after != before {
		t.Fatalf("pending releases went %d -> %d GB across the drain, want unchanged", before, after)
	}
}

func TestInjectEMCFailureBlastRadius(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsePredictions = true
	cfg.Seed = 9
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Start history-rich VMs so some use the pool.
	var ids []int64
	for c := int32(1); c <= 4; c++ {
		for i := 0; i < 5; i++ {
			vm, err := sys.StartVM(VMSpec{
				Cores: 2, MemoryGB: 16, Workload: "P2-database",
				Customer: c, UntouchedFrac: 0.6,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, vm.ID)
			sys.AdvanceSeconds(600)
			if i < 3 {
				sys.StopVM(vm.ID)
				ids = ids[:len(ids)-1]
			}
		}
	}
	running := sys.Stats().RunningVMs
	affected, err := sys.InjectEMCFailure(0)
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Stats().RunningVMs
	if after != running-len(affected) {
		t.Fatalf("blast radius accounting: %d -> %d with %d affected", running, after, len(affected))
	}
	// VMs on the surviving EMC (or all-local) keep running.
	if after == 0 && running > len(affected) {
		t.Fatal("failure took down unaffected VMs")
	}
	if _, err := sys.InjectEMCFailure(99); err == nil {
		t.Fatal("bad EMC index accepted")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 158 {
		t.Fatalf("workloads = %d", len(ws))
	}
}

func TestAdvanceAndNow(t *testing.T) {
	sys := newTestSystem(t)
	sys.AdvanceSeconds(10)
	sys.AdvanceSeconds(-5) // ignored
	if sys.Now() != 10 {
		t.Fatalf("now = %v", sys.Now())
	}
}

func TestStatsLatencyReporting(t *testing.T) {
	sys := newTestSystem(t)
	st := sys.Stats()
	if st.AccessLatencyN != 180 { // 16-socket pool
		t.Fatalf("pool latency = %v ns, want 180", st.AccessLatencyN)
	}
	if !strings.Contains(st.PoolLatency, "16-socket") {
		t.Fatalf("latency string = %q", st.PoolLatency)
	}
}

func TestQoSSweepMigratesWhenNoLocalHeadroom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.CoresPerSocket = 8
	cfg.MemGBPerSocket = 32 // tiny sockets: reconfiguration headroom is scarce
	cfg.Seed = 13
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// History so the scheduler uses the pool for a sensitive workload.
	for i := 0; i < 4; i++ {
		vm, err := sys.StartVM(VMSpec{
			Cores: 2, MemoryGB: 24, Workload: "605.mcf_s",
			Customer: 3, UntouchedFrac: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.AdvanceSeconds(600)
		sys.StopVM(vm.ID)
	}
	victim, err := sys.StartVM(VMSpec{
		Cores: 2, MemoryGB: 24, Workload: "605.mcf_s",
		Customer: 3, UntouchedFrac: 0.02, // overpredicted: spills hard
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.PoolGB == 0 {
		t.Skip("scheduler kept the victim local")
	}
	// Exhaust the victim host's local memory so reconfiguration cannot
	// run there. Best-fit placement prefers the victim's host while it
	// fits; the first filler landing elsewhere means it is full, and
	// stopping that filler keeps the other host free as the migration
	// target.
	for {
		filler, err := sys.StartVM(VMSpec{Cores: 1, MemoryGB: 14, Workload: "541.leela_r", Customer: 99})
		if err != nil {
			break
		}
		if filler.Host != victim.Host {
			if err := sys.StopVM(filler.ID); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	reports := sys.RunQoSSweep()
	for _, rep := range reports {
		if rep.VM != victim.ID {
			continue
		}
		if !rep.Reconfigured && !rep.Migrated {
			t.Fatalf("victim neither reconfigured nor migrated: %+v", rep)
		}
		after, _ := sys.VMInfo(victim.ID)
		if after.PoolGB != 0 {
			t.Fatalf("victim still pool-backed after mitigation: %+v", after)
		}
		return
	}
	t.Fatal("victim missing from QoS reports")
}

func TestInjectHostFailure(t *testing.T) {
	sys := newTestSystem(t)
	a, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "P5-web"})
	if err != nil {
		t.Fatal(err)
	}
	// Force a second VM onto a different host by filling the first
	// host's cores... simpler: place enough VMs that both hosts are
	// used, then fail one.
	var other int64
	for i := 0; i < 20; i++ {
		vm, err := sys.StartVM(VMSpec{Cores: 4, MemoryGB: 16, Workload: "P5-web"})
		if err != nil {
			break
		}
		if vm.Host != a.Host {
			other = vm.ID
			break
		}
	}
	lost, err := sys.InjectHostFailure(a.Host)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range lost {
		if id == a.ID {
			found = true
		}
		if id == other && other != 0 {
			t.Fatal("failure took down a VM on another host")
		}
	}
	if !found {
		t.Fatal("resident VM not reported lost")
	}
	if _, ok := sys.VMInfo(a.ID); ok {
		t.Fatal("lost VM still tracked")
	}
	if other != 0 {
		if _, ok := sys.VMInfo(other); !ok {
			t.Fatal("surviving VM dropped")
		}
	}
	if _, err := sys.InjectHostFailure(99); err == nil {
		t.Fatal("bad host index accepted")
	}
}

// TestInjectHostFailureDrainsDeadHost checks that a failed host takes no
// further VMs and that its lost VMs come back in id order.
func TestInjectHostFailureDrainsDeadHost(t *testing.T) {
	sys := newTestSystem(t)
	var want []int64
	for i := 0; i < 6; i++ {
		vm, err := sys.StartVM(VMSpec{Cores: 2, MemoryGB: 8, Workload: "P5-web"})
		if err != nil {
			t.Fatal(err)
		}
		if vm.Host != 0 {
			t.Fatalf("vm %d packed onto host %d, want host 0", vm.ID, vm.Host)
		}
		want = append(want, vm.ID)
	}
	lost, err := sys.InjectHostFailure(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lost, want) {
		t.Fatalf("lost %v, want %v in id order", lost, want)
	}
	for i := 0; i < 3; i++ {
		vm, err := sys.StartVM(VMSpec{Cores: 2, MemoryGB: 8, Workload: "P5-web"})
		if err != nil {
			t.Fatal(err)
		}
		if vm.Host == 0 {
			t.Fatalf("vm %d placed on the failed host", vm.ID)
		}
	}
}

// TestStartVMFractionalAllPool starts a VM of fractional size whose
// decision is all-pool (the third start of one customer's VMs at seed 3):
// its grant takes the next whole slice, and stopping it returns every
// slice.
func TestStartVMFractionalAllPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.Stats().PoolFreeGB
	spec := VMSpec{Cores: 2, MemoryGB: 16.5, Workload: "P1-video", Customer: 7}
	var vm *VM
	for i := 1; i <= 3; i++ {
		if vm, err = sys.StartVM(spec); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		if i == 3 {
			break
		}
		sys.AdvanceSeconds(100)
		if err := sys.StopVM(vm.ID); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceSeconds(100)
	}
	if vm.Decision != "all-pool" || vm.PoolGB != 16.5 {
		t.Fatalf("third start: %s with %v GB pool, want all-pool with 16.5", vm.Decision, vm.PoolGB)
	}
	if free := sys.Stats().PoolFreeGB; free != initial-17 {
		t.Fatalf("pool free %d GB with the VM running, want %d (17 slices granted)", free, initial-17)
	}
	if err := sys.StopVM(vm.ID); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceSeconds(100)
	if st := sys.Stats(); st.PoolFreeGB != initial || st.PoolUsedGB != 0 {
		t.Fatalf("after stop: pool free %d GB, used %v, want %d free and 0 used", st.PoolFreeGB, st.PoolUsedGB, initial)
	}
}

func TestReplayTraceThroughSystem(t *testing.T) {
	gen := clusterGenConfigForReplay()
	tr := clusterGenerate(gen)[0]

	cfg := DefaultConfig()
	cfg.Hosts = gen.ServersPerCluster
	cfg.Seed = 21
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Replay(&tr, 3600)
	if res.Started == 0 {
		t.Fatal("nothing started")
	}
	if float64(res.Rejected)/float64(res.Started+res.Rejected) > 0.15 {
		t.Fatalf("rejection rate too high: %+v", res)
	}
	if res.PoolBacked == 0 {
		t.Error("no VM used the pool during replay")
	}
	if res.MeanSlowdown > 0.05 {
		t.Errorf("mean slowdown %.3f above the PDM", res.MeanSlowdown)
	}
	if res.PeakPoolGB <= 0 {
		t.Error("pool never used")
	}
	// The system must drain to empty after the full replay.
	if sys.Stats().RunningVMs != 0 {
		t.Errorf("%d VMs still running after replay", sys.Stats().RunningVMs)
	}
	if res.String() == "" {
		t.Error("empty summary")
	}
}

func TestDescribe(t *testing.T) {
	sys := newTestSystem(t)
	d := sys.Describe()
	for _, want := range []string{"8 hosts", "1024 GB", "PDM=5%", "TP=98%", "all-local"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}
