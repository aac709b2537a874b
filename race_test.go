package pond

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSystemUse hammers one System from many goroutines mixing
// every control-plane entry point. Run with -race: the System's coarse
// lock must serialize VM admission, release, QoS sweeps, and stats reads
// without data races or lost capacity.
func TestConcurrentSystemUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsePredictions = false // keep each op cheap; locking is what's under test
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vm, err := sys.StartVM(VMSpec{
					Cores: 2, MemoryGB: 8,
					Workload: "redis-ycsb-a",
					Customer: int32(g + 1),
				})
				if err != nil {
					if errors.Is(err, ErrNoCapacity) {
						continue // another goroutine got there first; fine
					}
					t.Errorf("StartVM: %v", err)
					return
				}
				if _, ok := sys.VMInfo(vm.ID); !ok {
					t.Errorf("VMInfo lost VM %d", vm.ID)
					return
				}
				sys.AdvanceSeconds(1)
				_ = sys.Stats()
				_ = sys.Describe()
				if i%5 == 0 {
					_ = sys.RunQoSSweep()
				}
				if err := sys.StopVM(vm.ID); err != nil {
					t.Errorf("StopVM: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := sys.Stats()
	if st.RunningVMs != 0 {
		t.Fatalf("%d VMs leaked after concurrent start/stop", st.RunningVMs)
	}
	before, _ := NewSystem(cfg)
	if st.LocalFreeGB != before.Stats().LocalFreeGB {
		t.Fatalf("local capacity drifted: %.0f GB free, want %.0f", st.LocalFreeGB, before.Stats().LocalFreeGB)
	}
}

// TestConcurrentStartersAndStoppers splits producers and consumers across
// goroutines so starts and stops of the same VMs genuinely interleave.
func TestConcurrentStartersAndStoppers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsePredictions = false
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(chan int64, 128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				vm, err := sys.StartVM(VMSpec{Cores: 1, MemoryGB: 4, Workload: "P5-web"})
				if err != nil {
					continue
				}
				ids <- vm.ID
			}
		}()
	}
	var stopped sync.WaitGroup
	for g := 0; g < 4; g++ {
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			for id := range ids {
				if err := sys.StopVM(id); err != nil {
					t.Errorf("StopVM(%d): %v", id, err)
				}
				_ = sys.Stats()
			}
		}()
	}
	wg.Wait()
	close(ids)
	stopped.Wait()
	if n := sys.Stats().RunningVMs; n != 0 {
		t.Fatalf("%d VMs still running", n)
	}
}

// TestRunExperimentsUnderRace drives one small figure pipeline through
// the public API with a parallel worker pool; under -race this sweeps the
// engine's work-stealing deques and the fan-out/merge path.
func TestRunExperimentsUnderRace(t *testing.T) {
	res, err := RunExperiments(context.Background(), ExperimentOptions{
		Scale:   "quick",
		Figures: []string{"2a"},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "2a" || res[0].Output == "" {
		t.Fatalf("unexpected results: %+v", res)
	}
}

// TestRunExperimentsValidation covers the public API's error paths and
// cancellation.
func TestRunExperimentsValidation(t *testing.T) {
	if _, err := RunExperiments(context.Background(), ExperimentOptions{Scale: "galactic"}); err == nil {
		t.Fatal("bad scale accepted")
	}
	if _, err := RunExperiments(context.Background(), ExperimentOptions{Figures: []string{"nope"}}); err == nil {
		t.Fatal("bad figure accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiments(ctx, ExperimentOptions{Figures: []string{"2a"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunExperimentsDeterministic asserts the public API inherits the
// engine's worker-count independence.
func TestRunExperimentsDeterministic(t *testing.T) {
	opts := ExperimentOptions{Figures: []string{"2a", "3"}, Seed: 7}
	opts.Workers = 1
	a, err := RunExperiments(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	b, err := RunExperiments(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Output != b[i].Output {
			t.Fatalf("figure %s differs between workers=1 and workers=8", a[i].Name)
		}
	}
}

// TestConcurrentFleetUnderInjection stresses the online control plane the
// way the fleet simulator exercises it, but concurrently: starters and
// stoppers race against EMC-failure injection and host drains on a sparse
// topology. Run with -race: the coarse lock must keep blast-radius
// accounting, drain migration, and slice release consistent.
func TestConcurrentFleetUnderInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsePredictions = false
	cfg.Topology = "sparse"
	cfg.EMCs = 4
	cfg.PodDegree = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churn: start/stop VMs from several goroutines.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				vm, err := sys.StartVM(VMSpec{
					Cores: 2, MemoryGB: 8,
					Workload: "redis-ycsb-a",
					Customer: int32(g + 1),
				})
				if err != nil {
					continue // capacity contention or blast loss; fine
				}
				sys.AdvanceSeconds(1)
				_ = sys.Stats()
				// The VM may already be gone to an injected EMC failure.
				_ = sys.StopVM(vm.ID)
			}
		}(g)
	}
	// Injector: drain/undrain hosts and fail an EMC mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 10; i++ {
			h := i % cfg.Hosts
			if _, _, err := sys.DrainHost(h); err != nil {
				t.Errorf("DrainHost(%d): %v", h, err)
				return
			}
			_ = sys.Describe()
			if err := sys.UndrainHost(h); err != nil {
				t.Errorf("UndrainHost(%d): %v", h, err)
				return
			}
			if i == 5 {
				if _, err := sys.InjectEMCFailure(1); err != nil {
					t.Errorf("InjectEMCFailure: %v", err)
					return
				}
				if got := sys.BlastRadiusHosts(1); len(got) == 0 || len(got) == cfg.Hosts {
					t.Errorf("sparse blast radius = %d hosts, want strict subset", len(got))
					return
				}
			}
		}
	}()
	wg.Wait()
	<-stop

	// Drain the survivors; capacity must reconcile.
	st := sys.Stats()
	if st.RunningVMs < 0 {
		t.Fatalf("negative running VM count: %+v", st)
	}
}

// TestRunFleetDeterministicPublicAPI asserts the acceptance contract end
// to end: same seed, different worker counts, byte-identical event log
// and hash — through the public RunFleet facade with injections active.
func TestRunFleetDeterministicPublicAPI(t *testing.T) {
	base := FleetOpts{
		Cluster:    ClusterOpts{Topology: "sparse", Hosts: 4, EMCs: 4, PoolGB: 64, Cells: 3, DurationSec: 400},
		Arrivals:   ArrivalOpts{Process: "poisson", RatePerSec: 0.1, MeanLifetimeSec: 200},
		Model:      ModelOpts{Disabled: true},
		Injections: mustParseInjections(t, "emc-fail@t=200,host-drain@t=300:host=1,surge@t=50:dur=100:x=2"),
	}
	a := base
	a.Engine.Workers = 1
	ra, err := RunFleet(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Engine.Workers = 8
	rb, err := RunFleet(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.EventLog != rb.EventLog || ra.LogSHA256 != rb.LogSHA256 {
		t.Fatal("RunFleet event log differs between workers=1 and workers=8")
	}
	if ra.LogSHA256 == "" || ra.Placed == 0 {
		t.Fatalf("degenerate report: %+v", ra.Summary)
	}
	if _, err := ParseInjections("bogus@t=1"); err == nil {
		t.Fatal("bad injection spec accepted")
	}
	if _, err := RunFleet(context.Background(), FleetOpts{Arrivals: ArrivalOpts{Process: "bogus"}}); err == nil {
		t.Fatal("bad arrival process accepted")
	}
}

// TestRunFleetRetrainPublicAPI drives the online model-lifecycle loop
// through the public facade: retrain events must appear identically for
// any worker count, and the report must surface model quality and the
// promotion history.
func TestRunFleetRetrainPublicAPI(t *testing.T) {
	base := FleetOpts{
		Cluster:    ClusterOpts{Hosts: 4, EMCs: 4, PoolGB: 128, Cells: 2, DurationSec: 1200},
		Arrivals:   ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 200},
		Model:      ModelOpts{RetrainEverySec: 300, MinTrainRows: 16, Capture: true},
		Injections: mustParseInjections(t, "drift@t=600:mag=0.6"),
	}
	a := base
	a.Engine.Workers = 1
	ra, err := RunFleet(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Engine.Workers = 8
	rb, err := RunFleet(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.EventLog != rb.EventLog || ra.LogSHA256 != rb.LogSHA256 {
		t.Fatal("retrain-enabled event log differs between workers=1 and workers=8")
	}
	if ra.Retrains == 0 || len(ra.PromotionHistory) == 0 {
		t.Fatalf("lifecycle missing from public report: retrains=%d history=%d",
			ra.Retrains, len(ra.PromotionHistory))
	}
	if !strings.Contains(ra.EventLog, "mlops um retrain") {
		t.Fatal("retrain events missing from the public event log")
	}
	if len(ra.ModelsJSON) != base.Cluster.Cells {
		t.Fatalf("model dumps = %d, want one per cell", len(ra.ModelsJSON))
	}
	if ra.PredErrMean <= 0 {
		t.Fatalf("prediction error not surfaced: %+v", ra.PredErrMean)
	}
	if _, err := RunFleet(context.Background(), FleetOpts{
		Model: ModelOpts{RetrainEverySec: 100, Disabled: true},
	}); err == nil {
		t.Fatal("retraining without predictions accepted")
	}
}

// TestRunFleetElasticPublicAPI drives the elastic capacity loop through
// the public facade: planning decisions appear identically for any
// worker count, and the report surfaces the savings metrics and plan
// history together with a manual resize injection.
func TestRunFleetElasticPublicAPI(t *testing.T) {
	base := FleetOpts{
		Cluster:    ClusterOpts{Hosts: 4, EMCs: 4, PoolGB: 128, Cells: 2, DurationSec: 800},
		Arrivals:   ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 200},
		Capacity:   CapacityOpts{Elastic: true, PlanEverySec: 200, TargetQoS: 0.01},
		Injections: mustParseInjections(t, "resize@t=150:emc=1:slices=-8"),
	}
	a := base
	a.Engine.Workers = 1
	ra, err := RunFleet(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Engine.Workers = 8
	rb, err := RunFleet(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.EventLog != rb.EventLog || ra.LogSHA256 != rb.LogSHA256 {
		t.Fatal("elastic event log differs between workers=1 and workers=8")
	}
	if len(ra.PlanHistory) == 0 {
		t.Fatal("plan history missing from the public report")
	}
	if ra.DRAMSavedGB <= 0 || ra.FinalPoolGB >= base.Cluster.PoolGB*base.Cluster.Cells {
		t.Fatalf("elastic pool banked no savings: saved=%.2f final=%d", ra.DRAMSavedGB, ra.FinalPoolGB)
	}
	if !strings.Contains(ra.EventLog, "inject resize emc=1") {
		t.Fatal("resize injection missing from the public event log")
	}
	if !strings.Contains(ra.Summary, "elastic:") {
		t.Fatalf("summary missing the elastic line:\n%s", ra.Summary)
	}
	// Elastic knobs without the elastic pool are rejected.
	if _, err := RunFleet(context.Background(), FleetOpts{Capacity: CapacityOpts{PlanEverySec: 100}}); err == nil {
		t.Fatal("plan cadence without ElasticPool accepted")
	}
}
