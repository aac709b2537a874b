package core

import (
	"strings"
	"testing"

	"pond/internal/cluster"
	"pond/internal/host"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/telemetry"
	"pond/internal/workload"
)

// fixedScore is a stub insensitivity model returning a constant.
type fixedScore float64

func (f fixedScore) Score(pmu.Vector) float64 { return float64(f) }
func (f fixedScore) Name() string             { return "fixed" }

func testVM(id cluster.VMID, cust cluster.CustomerID, memGB float64, wname string) cluster.VMRequest {
	w, ok := workload.ByName(wname)
	if !ok {
		panic("unknown workload " + wname)
	}
	return cluster.VMRequest{
		ID:       id,
		Customer: cust,
		Type:     cluster.VMType{Name: "T", Cores: 4, MemoryGB: memGB},
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: 0.5,
			Workload:      w,
		},
	}
}

func TestDecideAllPoolForInsensitive(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.95), predict.FixedUntouched{Frac: 0.3}, nil)
	vm := testVM(1, 1, 16, "541.leela_r")
	var v pmu.Vector
	d := p.Decide(vm, &v, predict.UMFeatures(vm, telemetry.History{}))
	if d.Kind != AllPool || d.PoolGB != 16 || d.LocalGB != 0 {
		t.Fatalf("decision = %+v, want all-pool", d)
	}
	if d.Score != 0.95 {
		t.Fatalf("score = %v", d.Score)
	}
}

func TestDecideZNUMAWhenSensitive(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.2), predict.FixedUntouched{Frac: 0.3}, nil)
	vm := testVM(1, 1, 16, "505.mcf_r")
	var v pmu.Vector
	d := p.Decide(vm, &v, predict.UMFeatures(vm, telemetry.History{}))
	if d.Kind != ZNUMA {
		t.Fatalf("decision = %+v, want zNUMA", d)
	}
	// 0.3 * 16 = 4.8 -> 4 GB aligned down.
	if d.PoolGB != 4 || d.LocalGB != 12 {
		t.Fatalf("split = %g/%g, want 12/4", d.LocalGB, d.PoolGB)
	}
}

func TestDecideNoHistorySkipsInsensitivePath(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.99), predict.FixedUntouched{Frac: 0.25}, nil)
	vm := testVM(1, 1, 16, "505.mcf_r")
	d := p.Decide(vm, nil, predict.UMFeatures(vm, telemetry.History{}))
	if d.Kind == AllPool {
		t.Fatal("no-history VM placed all-pool; Figure 13 requires the UM path")
	}
}

func TestDecideAllLocalOnZeroUM(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, predict.FixedUntouched{Frac: 0}, nil)
	vm := testVM(1, 1, 16, "505.mcf_r")
	d := p.Decide(vm, nil, predict.UMFeatures(vm, telemetry.History{}))
	if d.Kind != AllLocal || d.LocalGB != 16 {
		t.Fatalf("decision = %+v, want all-local", d)
	}
}

func TestDecideNilModelsAllLocal(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	vm := testVM(1, 1, 8, "505.mcf_r")
	d := p.Decide(vm, nil, nil)
	if d.Kind != AllLocal {
		t.Fatalf("decision = %+v", d)
	}
}

func TestKnownSensitiveCustomerSkipsAllPool(t *testing.T) {
	store := telemetry.NewStore()
	store.MarkSensitive(7)
	p := NewPipeline(DefaultConfig(), fixedScore(0.99), predict.FixedUntouched{Frac: 0.25}, store)
	vm := testVM(1, 7, 16, "505.mcf_r")
	var v pmu.Vector
	d := p.Decide(vm, &v, predict.UMFeatures(vm, telemetry.History{}))
	if d.Kind == AllPool {
		t.Fatal("QoS-flagged customer went all-pool again")
	}
}

func TestEvaluateAllLocalNeverExceeds(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	vm := testVM(1, 1, 16, "505.mcf_r")
	out := p.Evaluate(vm, Decision{Kind: AllLocal, LocalGB: 16})
	if out.ExceedsPDM || out.SlowdownFrac != 0 || out.Mitigated {
		t.Fatalf("all-local outcome = %+v", out)
	}
}

func TestEvaluateAllPoolSensitiveExceedsAndMitigates(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPipeline(cfg, nil, nil, nil)
	vm := testVM(1, 9, 16, "505.mcf_r") // 34% slowdown at 182%
	vm.ArrivalSec = 1000
	out := p.Evaluate(vm, Decision{Kind: AllPool, PoolGB: 16})
	if !out.ExceedsPDM || !out.Mitigated {
		t.Fatalf("outcome = %+v, want exceed+mitigate", out)
	}
	if out.MitigateAtSec != 1000+cfg.MonitorDelaySec {
		t.Fatalf("mitigate at %v", out.MitigateAtSec)
	}
	if !p.Store().KnownSensitive(9) {
		t.Fatal("customer not flagged sensitive after mitigation")
	}
}

func TestEvaluateAllPoolInsensitiveFine(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	vm := testVM(1, 1, 16, "541.leela_r") // ~0.5% slowdown
	out := p.Evaluate(vm, Decision{Kind: AllPool, PoolGB: 16})
	if out.ExceedsPDM || out.Mitigated {
		t.Fatalf("insensitive all-pool outcome = %+v", out)
	}
}

func TestEvaluateZNUMACorrectPredictionFine(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	vm := testVM(1, 1, 16, "505.mcf_r") // untouched 0.5 => touched 8
	// local 10 GB >= touched 8: no spill beyond metadata.
	out := p.Evaluate(vm, Decision{Kind: ZNUMA, LocalGB: 10, PoolGB: 6})
	if out.SpilledGB != 0 {
		t.Fatalf("spilled = %v", out.SpilledGB)
	}
	if out.ExceedsPDM {
		t.Fatalf("correctly sized zNUMA exceeded PDM: %+v", out)
	}
}

func TestEvaluateZNUMAOverpredictionSpills(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	vm := testVM(1, 1, 16, "505.mcf_r") // touched 8 GB
	out := p.Evaluate(vm, Decision{Kind: ZNUMA, LocalGB: 4, PoolGB: 12})
	if out.SpilledGB != 4 {
		t.Fatalf("spilled = %v, want 4", out.SpilledGB)
	}
	if !out.ExceedsPDM || !out.Mitigated {
		t.Fatalf("mcf spilling half its footprint must exceed PDM: %+v", out)
	}
}

func TestDecisionKindStrings(t *testing.T) {
	if AllLocal.String() != "all-local" || ZNUMA.String() != "zNUMA" || AllPool.String() != "all-pool" {
		t.Fatal("kind names wrong")
	}
	if DecisionKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestDecisionPoolFrac(t *testing.T) {
	d := Decision{LocalGB: 12, PoolGB: 4}
	if d.PoolFrac() != 0.25 {
		t.Fatalf("pool frac = %v", d.PoolFrac())
	}
	if (Decision{}).PoolFrac() != 0 {
		t.Fatal("empty decision pool frac")
	}
}

func TestPlanTraceEndToEnd(t *testing.T) {
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 2
	cfg.Days = 25
	cfg.ServersPerCluster = 8
	traces := cluster.Generate(cfg)

	// Train a real UM model on a separate trace set.
	trainCfg := cfg
	trainCfg.Seed = 99
	trainTraces := cluster.Generate(trainCfg)
	ds := predict.BuildUMDataset(trainTraces)
	um := predict.TrainGBMUntouched(ds.X, ds.TrueUntouched, 0.05, 1)

	sens := predict.BuildSensitivityDataset(workload.Ratio182, 0.05, 2, 1)
	rf := predict.TrainForest(sens.X, sens.Insensitive, 1)
	thr := predict.ThresholdForLabelRate(predict.DatasetScores(rf, sens), 0.30)

	pcfg := DefaultConfig()
	pcfg.InsensScoreThreshold = thr
	p := NewPipeline(pcfg, rf, um, nil)

	plan, st := p.PlanTrace(&traces[0], stats.NewRand(5))
	if st.VMs != len(traces[0].VMs) {
		t.Fatalf("stats cover %d of %d VMs", st.VMs, len(traces[0].VMs))
	}
	if len(plan.PoolFrac) != st.VMs {
		t.Fatal("plan length mismatch")
	}
	if st.AllPoolN == 0 {
		t.Error("no VM placed all-pool; insensitivity path inactive")
	}
	if st.ZNUMAN == 0 {
		t.Error("no VM got a zNUMA node; UM path inactive")
	}
	if st.PoolGBShare < 0.1 || st.PoolGBShare > 0.8 {
		t.Errorf("pool share = %v, implausible", st.PoolGBShare)
	}
	// Misprediction rate should be low single digits: the whole point
	// of the pipeline.
	if st.MispredictFrac() > 0.08 {
		t.Errorf("mispredictions = %.3f, want <= 0.08", st.MispredictFrac())
	}
	// Every mitigation lands within the plan.
	for i, at := range plan.MitigateAtSec {
		if at < traces[0].VMs[i].ArrivalSec {
			t.Fatalf("mitigation before arrival for VM %d", i)
		}
	}
}

func TestQoSMonitorAllLocalNeverMitigates(t *testing.T) {
	q := NewQoSMonitor(DefaultConfig(), fixedScore(0))
	p := &host.Placement{LocalGB: 16}
	v := q.Check(p, 16, pmu.Vector{})
	if v.NeedsMitigation || v.Overpredicted {
		t.Fatalf("all-local verdict = %+v", v)
	}
}

func TestQoSMonitorZNUMARequiresBothConditions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InsensScoreThreshold = 0.5
	p := &host.Placement{LocalGB: 12, PoolGB: 4}

	// Overpredicted but insensitive: keep monitoring.
	q := NewQoSMonitor(cfg, fixedScore(0.9))
	if v := q.Check(p, 14, pmu.Vector{}); !v.Overpredicted || v.NeedsMitigation {
		t.Fatalf("insensitive spill verdict = %+v", v)
	}
	// Overpredicted and sensitive: mitigate.
	q = NewQoSMonitor(cfg, fixedScore(0.1))
	if v := q.Check(p, 14, pmu.Vector{}); !v.NeedsMitigation {
		t.Fatalf("sensitive spill verdict = %+v", v)
	}
	// Not overpredicted: no mitigation even if sensitive.
	if v := q.Check(p, 10, pmu.Vector{}); v.NeedsMitigation {
		t.Fatalf("no-spill verdict = %+v", v)
	}
}

func TestQoSMonitorFullyPooledSensitiveMitigates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InsensScoreThreshold = 0.5
	p := &host.Placement{LocalGB: 0, PoolGB: 16}
	q := NewQoSMonitor(cfg, fixedScore(0.1))
	if v := q.Check(p, 8, pmu.Vector{}); !v.NeedsMitigation {
		t.Fatalf("sensitive all-pool verdict = %+v", v)
	}
	q = NewQoSMonitor(cfg, fixedScore(0.9))
	if v := q.Check(p, 8, pmu.Vector{}); v.NeedsMitigation {
		t.Fatalf("insensitive all-pool verdict = %+v", v)
	}
}

func TestPlanStatsString(t *testing.T) {
	st := PlanStats{VMs: 100, AllPoolN: 20, ZNUMAN: 50, AllLocalN: 30, ExceedPDMN: 2, MitigatedN: 2, PoolGBShare: 0.4}
	if st.String() == "" || st.MispredictFrac() != 0.02 {
		t.Fatal("stats rendering wrong")
	}
	if (PlanStats{}).MispredictFrac() != 0 || (PlanStats{}).MitigatedFrac() != 0 {
		t.Fatal("empty stats divide by zero")
	}
}

func TestExplainBranches(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.95), predict.FixedUntouched{Frac: 0.3}, nil)
	vm := testVM(1, 1, 16, "541.leela_r")

	// No history.
	s := p.Explain(vm, nil, predict.UMFeatures(vm, telemetry.History{}))
	if !strings.Contains(s, "no workload history") {
		t.Fatalf("missing history branch: %s", s)
	}
	// With history, high score: all-pool.
	var v pmu.Vector
	s = p.Explain(vm, &v, predict.UMFeatures(vm, telemetry.History{}))
	if !strings.Contains(s, "all-pool") || !strings.Contains(s, "score 0.950") {
		t.Fatalf("missing score branch: %s", s)
	}
	// QoS-flagged customer.
	p.Store().MarkSensitive(vm.Customer)
	s = p.Explain(vm, &v, predict.UMFeatures(vm, telemetry.History{}))
	if !strings.Contains(s, "QoS-flagged") {
		t.Fatalf("missing flagged branch: %s", s)
	}
	// No UM model: all-local.
	p2 := NewPipeline(DefaultConfig(), nil, nil, nil)
	s = p2.Explain(vm, nil, nil)
	if !strings.Contains(s, "all-local") {
		t.Fatalf("missing all-local branch: %s", s)
	}
}

func TestPipelineServesThroughServer(t *testing.T) {
	// The pipeline must consult the server's models, not the ones it was
	// built with: swapping the server changes decisions without touching
	// the pipeline.
	p := NewPipeline(DefaultConfig(), nil, nil, nil)
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0.5})
	p.UseServer(srv)
	vm := testVM(50, 9, 16, "541.leela_r")
	feats := make([]float64, 12)
	d := p.Decide(vm, nil, feats)
	if d.Kind != ZNUMA || d.PoolGB != 8 {
		t.Fatalf("served decision = %+v, want 8 GB zNUMA", d)
	}
	srv.Swap(nil, predict.FixedUntouched{Frac: 0})
	if d := p.Decide(vm, nil, feats); d.Kind != AllLocal {
		t.Fatalf("decision after swap = %+v, want all-local", d)
	}
}

func TestPipelineServerWithoutModelFallsBackLocal(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.99), predict.FixedUntouched{Frac: 0.5}, nil)
	p.UseServer(predict.NewServer(nil, nil))
	// The server overrides the direct models; with none installed the VM
	// stays local.
	v := pmu.Vector{}
	if d := p.Decide(testVM(51, 9, 16, "541.leela_r"), &v, make([]float64, 12)); d.Kind != AllLocal {
		t.Fatalf("decision = %+v, want all-local when the server is empty", d)
	}
}

func TestShadowHookSeesEveryDecision(t *testing.T) {
	p := NewPipeline(DefaultConfig(), nil, predict.FixedUntouched{Frac: 0.25}, nil)
	var got []Decision
	p.SetShadowHook(func(_ cluster.VMRequest, _ *pmu.Vector, _ []float64, d Decision) {
		got = append(got, d)
	})
	d1 := p.Decide(testVM(52, 9, 16, "541.leela_r"), nil, make([]float64, 12))
	d2 := p.Decide(testVM(53, 9, 32, "541.leela_r"), nil, nil)
	if len(got) != 2 || got[0] != d1 || got[1] != d2 {
		t.Fatalf("shadow hook observed %v, want [%v %v]", got, d1, d2)
	}
	p.SetShadowHook(nil)
	p.Decide(testVM(54, 9, 16, "541.leela_r"), nil, nil)
	if len(got) != 2 {
		t.Fatal("removed hook still fired")
	}
}

func TestSetInsensThreshold(t *testing.T) {
	p := NewPipeline(DefaultConfig(), fixedScore(0.8), nil, nil)
	v := pmu.Vector{}
	if d := p.Decide(testVM(55, 9, 8, "541.leela_r"), &v, nil); d.Kind == AllPool {
		t.Fatal("score 0.8 below the default threshold should not go all-pool")
	}
	p.SetInsensThreshold(0.7)
	if d := p.Decide(testVM(55, 9, 8, "541.leela_r"), &v, nil); d.Kind != AllPool {
		t.Fatalf("decision = %+v, want all-pool after lowering the threshold", d)
	}
}
