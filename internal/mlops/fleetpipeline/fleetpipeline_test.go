package fleetpipeline

import (
	"testing"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/mlops"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// fixedUM predicts a constant fraction.
type fixedUM float64

func (f fixedUM) PredictUntouchedFrac([]float64) float64 { return float64(f) }
func (f fixedUM) Name() string                           { return "Fixed" }

// testConfig is a tiny pipeline that trains and bakes within a few
// barriers.
func testConfig(cells int) Config {
	cfg := DefaultConfig(cells)
	cfg.MinTrainRows = 8
	cfg.MinHoldout = 4
	cfg.HoldoutWindow = 32
	cfg.BakeWindowSec = 2
	cfg.PromoteMargin = 0.05
	return cfg
}

// feed returns n rows/obs where the champion (version champVer, constant
// champPred) and challenger (challVer, challPred) score VMs whose true
// label is truth.
func feed(n int, champVer int, champPred float64, challVer int, challPred, truth float64) ([]Row, []mlops.Obs) {
	rows := make([]Row, n)
	obs := make([]mlops.Obs, n)
	for i := range rows {
		rows[i] = Row{Feats: []float64{float64(i)}, Label: truth}
		o := mlops.Obs{ChampVer: champVer, ChallVer: challVer, FbVer: -1}
		o.ChampLoss = lossOf(champPred, truth)
		if challVer >= 0 {
			o.ChallLoss = lossOf(challPred, truth)
		}
		obs[i] = o
	}
	return rows, obs
}

func lossOf(pred, truth float64) float64 {
	if pred > truth {
		return 3 * (pred - truth)
	}
	return truth - pred
}

func TestTickRejectsWrongCellCount(t *testing.T) {
	m := NewManager(testConfig(2), fixedUM(0.5))
	if _, err := m.Tick(1, make([][]Row, 1), make([][]mlops.Obs, 2)); err == nil {
		t.Fatal("short row set should error")
	}
	if _, err := m.Tick(1, make([][]Row, 2), make([][]mlops.Obs, 3)); err == nil {
		t.Fatal("long obs set should error")
	}
}

func TestRetrainOpensCanaryOnLowestCells(t *testing.T) {
	cfg := testConfig(4)
	cfg.CanaryFraction = 0.25
	m := NewManager(cfg, fixedUM(0.5))
	rows, obs := feed(8, 0, 0.5, -1, 0, 0.5)
	evs, err := m.Tick(1, [][]Row{rows, nil, nil, nil}, [][]mlops.Obs{obs, nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != EventRetrain || evs[1].Kind != EventCanaryStart {
		t.Fatalf("events = %v, want retrain + canary-start", evs)
	}
	if m.Stage() != StageCanary {
		t.Fatalf("stage = %s", m.Stage())
	}
	if got := m.CanaryCells(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("canary cells = %v, want [0]", got)
	}
	// Canary cell serves the challenger; control cells keep the champion.
	if a := m.AssignmentFor(0); a.Role != "canary" || a.ServeVer != 1 {
		t.Fatalf("cell 0 assignment = %+v", a)
	}
	if a := m.AssignmentFor(3); a.Role != "champion" || a.ServeVer != 0 {
		t.Fatalf("cell 3 assignment = %+v", a)
	}
	// Control cells still shadow-score the challenger.
	if a := m.AssignmentFor(3); a.ChallVer != 1 || a.Chall == nil {
		t.Fatalf("cell 3 must shadow the challenger: %+v", a)
	}
}

func TestCanaryFractionRounding(t *testing.T) {
	for _, tc := range []struct {
		cells int
		frac  float64
		want  int
	}{
		{4, 0.25, 1}, {4, 0.26, 2}, {4, 1, 4}, {8, 0.5, 4}, {3, 0.1, 1}, {1, 0.25, 1},
	} {
		cfg := testConfig(tc.cells)
		cfg.CanaryFraction = tc.frac
		m := NewManager(cfg, fixedUM(0.5))
		if got := m.canaryCount(); got != tc.want {
			t.Errorf("canaryCount(cells=%d frac=%g) = %d, want %d", tc.cells, tc.frac, got, tc.want)
		}
	}
}

// driveToCanary trains a challenger so the verdict paths can be tested.
func driveToCanary(t *testing.T, m *Manager, cells int) {
	t.Helper()
	rows, obs := feed(8, 0, 0.5, -1, 0, 0.5)
	perRow := make([][]Row, cells)
	perObs := make([][]mlops.Obs, cells)
	perRow[0], perObs[0] = rows, obs
	if _, err := m.Tick(1, perRow, perObs); err != nil {
		t.Fatal(err)
	}
	if m.Stage() != StageCanary {
		t.Fatal("pipeline did not open a canary")
	}
}

func TestBadChallengerRollsBackFromCanary(t *testing.T) {
	cfg := testConfig(4)
	cfg.CanaryFraction = 0.25
	m := NewManager(cfg, fixedUM(0.5))
	driveToCanary(t, m, 4)
	challVer := m.AssignmentFor(0).ChallVer

	// Canary cell observes the challenger losing badly to the champion
	// (truth 0.5: champion predicts 0.5, challenger way over at 0.9).
	perRow := make([][]Row, 4)
	perObs := make([][]mlops.Obs, 4)
	_, perObs[0] = feed(8, 0, 0.5, challVer, 0.9, 0.5)
	evs, err := m.Tick(3, perRow, perObs) // past bakeEnd = 1 + 2
	if err != nil {
		t.Fatal(err)
	}
	var rolledBack bool
	for _, e := range evs {
		if e.Kind == EventRollback && e.Ver == challVer {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Fatalf("events = %v, want rollback of ver %d", evs, challVer)
	}
	// Everyone serves the champion again; the challenger slot is empty.
	for cell := 0; cell < 4; cell++ {
		a := m.AssignmentFor(cell)
		if a.ServeVer != 0 || a.Role != "champion" || a.ChallVer != -1 {
			t.Fatalf("cell %d post-rollback assignment = %+v", cell, a)
		}
	}
}

func TestGoodChallengerPromotesFleetWide(t *testing.T) {
	cfg := testConfig(4)
	cfg.CanaryFraction = 0.5
	m := NewManager(cfg, fixedUM(0.1))
	driveToCanary(t, m, 4)
	challVer := m.AssignmentFor(0).ChallVer

	// Both canary cells see the challenger beating the stale champion.
	perRow := make([][]Row, 4)
	perObs := make([][]mlops.Obs, 4)
	_, perObs[0] = feed(4, 0, 0.1, challVer, 0.45, 0.5)
	_, perObs[1] = feed(4, 0, 0.1, challVer, 0.45, 0.5)
	evs, err := m.Tick(3, perRow, perObs)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Kind != EventPromote || evs[0].Ver != challVer {
		t.Fatalf("events = %v, want promote of ver %d", evs, challVer)
	}
	for cell := 0; cell < 4; cell++ {
		a := m.AssignmentFor(cell)
		if a.ServeVer != challVer || a.Role != "champion" {
			t.Fatalf("cell %d post-promotion assignment = %+v", cell, a)
		}
		// The displaced champion stays as the fallback regression guard.
		if a.FbVer != 0 || a.Fb == nil {
			t.Fatalf("cell %d lost the fallback: %+v", cell, a)
		}
	}
	if m.ChampionVer() != challVer {
		t.Fatalf("champion ver = %d", m.ChampionVer())
	}
}

func TestInsufficientCanaryHoldoutExtendsBake(t *testing.T) {
	cfg := testConfig(4)
	cfg.CanaryFraction = 0.25
	m := NewManager(cfg, fixedUM(0.5))
	driveToCanary(t, m, 4)
	challVer := m.AssignmentFor(0).ChallVer

	// Past the bake window but only 2 canary observations (< MinHoldout).
	perRow := make([][]Row, 4)
	perObs := make([][]mlops.Obs, 4)
	_, perObs[0] = feed(2, 0, 0.5, challVer, 0.9, 0.5)
	evs, err := m.Tick(3, perRow, perObs)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != EventHold {
		t.Fatalf("events = %v, want a single hold", evs)
	}
	if m.Stage() != StageCanary {
		t.Fatal("hold must keep the canary baking")
	}
	// The canary still serves the challenger during the extended bake.
	if a := m.AssignmentFor(0); a.ServeVer != challVer {
		t.Fatalf("canary assignment = %+v", a)
	}
}

func TestRegressedFanOutDemotesToFallback(t *testing.T) {
	cfg := testConfig(2)
	cfg.CanaryFraction = 1
	m := NewManager(cfg, fixedUM(0.1))
	driveToCanary(t, m, 2)
	challVer := m.AssignmentFor(0).ChallVer

	// Promote on strong canary data...
	perRow := make([][]Row, 2)
	perObs := make([][]mlops.Obs, 2)
	_, perObs[0] = feed(8, 0, 0.1, challVer, 0.45, 0.5)
	if _, err := m.Tick(3, perRow, perObs); err != nil {
		t.Fatal(err)
	}
	if m.ChampionVer() != challVer {
		t.Fatal("promotion did not happen")
	}
	// ...then the fleet-wide window shows the fallback was better all
	// along (labels moved back under the old model).
	perObs = make([][]mlops.Obs, 2)
	fbObs := make([]mlops.Obs, 8)
	for i := range fbObs {
		fbObs[i] = mlops.Obs{ChampVer: challVer, ChallVer: -1, FbVer: 0,
			ChampLoss: lossOf(0.45, 0.1), FbLoss: lossOf(0.1, 0.1)}
	}
	perObs[0] = fbObs
	evs, err := m.Tick(4, make([][]Row, 2), perObs)
	if err != nil {
		t.Fatal(err)
	}
	var demoted bool
	for _, e := range evs {
		if e.Kind == EventDemote && e.Ver == 0 {
			demoted = true
		}
	}
	if !demoted {
		t.Fatalf("events = %v, want demote back to ver 0", evs)
	}
	if m.ChampionVer() != 0 {
		t.Fatalf("champion ver = %d after demotion", m.ChampionVer())
	}
}

func TestEventStrings(t *testing.T) {
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: EventRetrain, Ver: 2, Rows: 96}, "fleetpipeline retrain ver=2 rows=96"},
		{Event{Kind: EventCanaryStart, Ver: 2, CanaryLo: 0, CanaryHi: 1}, "fleetpipeline canary-start ver=2 cells=0-1"},
		{Event{Kind: EventHold, Ver: 2, N: 3}, "fleetpipeline hold ver=2 n=3"},
		{Event{Kind: EventPromote, Ver: 2, ChampLoss: 0.5, ChallLoss: 0.25, N: 30},
			"fleetpipeline promote ver=2 loss=0.2500 champ-loss=0.5000 n=30"},
		{Event{Kind: EventRollback, Ver: 2, ChampLoss: 0.2, ChallLoss: 0.4, N: 30},
			"fleetpipeline rollback ver=2 loss=0.4000 champ-loss=0.2000 n=30"},
		// A rollback with no observations is the demotion-abort path, not
		// a verdict; it must not render as a zero-loss verdict.
		{Event{Kind: EventRollback, Ver: 3}, "fleetpipeline rollback ver=3 aborted-by-demotion"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("Event.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestCollectorRoundTrip(t *testing.T) {
	col := NewCollector(0, fixedUM(0.3), nil, 1.82, 0.05, 3, 16)
	types := cluster.VMTypes()
	vm := cluster.VMRequest{ID: 7, Customer: 1, Type: types[0],
		GroundTruth: cluster.VMGroundTruth{UntouchedFrac: 0.6}}
	feats := []float64{1, 2, 3}
	col.ObserveDecision(vm, nil, feats, core.Decision{})
	col.ObserveOutcome(vm, pmu.Vector{}, false)

	rows, obs := col.Drain()
	if len(rows) != 1 || rows[0].Label != 0.6 || len(rows[0].Feats) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if len(obs) != 1 || obs[0].ChampVer != 0 || obs[0].ChallVer != -1 {
		t.Fatalf("obs = %+v", obs)
	}
	// UMLoss(0.3, 0.6) underpredicts: loss 0.3.
	if got := obs[0].ChampLoss; got < 0.299 || got > 0.301 {
		t.Fatalf("champ loss = %g", got)
	}
	// Drain clears.
	if rows, obs := col.Drain(); rows != nil || obs != nil {
		t.Fatal("second drain not empty")
	}
	q := col.Quality()
	if q.Outcomes != 1 || q.ServeVer != 0 || q.ServeLossMean < 0.299 || q.ServeLossMean > 0.301 {
		t.Fatalf("quality = %+v", q)
	}
}

func TestCollectorForgetDropsPending(t *testing.T) {
	col := NewCollector(0, fixedUM(0.3), nil, 1.82, 0.05, 3, 16)
	vm := cluster.VMRequest{ID: 9, Type: cluster.VMTypes()[0],
		GroundTruth: cluster.VMGroundTruth{UntouchedFrac: 0.6}}
	col.ObserveDecision(vm, nil, []float64{1}, core.Decision{})
	col.ForgetVM(vm.ID)
	col.ObserveOutcome(vm, pmu.Vector{}, false)
	if rows, obs := col.Drain(); len(rows) != 0 || len(obs) != 0 {
		t.Fatalf("forgotten VM still produced rows=%v obs=%v", rows, obs)
	}
}

func TestCollectorNilFeaturesIgnored(t *testing.T) {
	col := NewCollector(0, fixedUM(0.3), nil, 1.82, 0.05, 3, 16)
	vm := cluster.VMRequest{ID: 1, Type: cluster.VMTypes()[0]}
	col.ObserveDecision(vm, nil, nil, core.Decision{})
	col.ObserveOutcome(vm, pmu.Vector{}, false)
	if rows, obs := col.Drain(); len(rows) != 0 || len(obs) != 0 {
		t.Fatal("nil features must not produce telemetry")
	}
}

func TestCollectorServingChallengerQuality(t *testing.T) {
	// On a canary cell the serving loss must be the challenger's, not the
	// champion's.
	col := NewCollector(0, fixedUM(0.3), nil, 1.82, 0.05, 3, 16)
	chall := fixedUM(0.55)
	col.Install(Assignment{
		Slots: mlops.Slots[predict.Untouched]{
			Champ: fixedUM(0.3), ChampVer: 0,
			Chall: chall, ChallVer: 1, FbVer: -1,
		},
		Serve: chall, ServeVer: 1, Role: "canary",
	})
	vm := cluster.VMRequest{ID: 2, Type: cluster.VMTypes()[0],
		GroundTruth: cluster.VMGroundTruth{UntouchedFrac: 0.6}}
	col.ObserveDecision(vm, nil, []float64{1}, core.Decision{})
	col.ObserveOutcome(vm, pmu.Vector{}, false)
	q := col.Quality()
	// Challenger loss = 0.6-0.55 = 0.05; champion's would be 0.3.
	if q.ServeLossMean < 0.049 || q.ServeLossMean > 0.051 {
		t.Fatalf("serving loss = %g, want the challenger's 0.05", q.ServeLossMean)
	}
	if q.ServeVer != 1 {
		t.Fatalf("serve ver = %d", q.ServeVer)
	}
}

func TestSyntheticRolloutTrainsAndResolves(t *testing.T) {
	counts := SyntheticRollout(4, 8, 24, DefaultConfig(4))
	if counts.Retrains == 0 {
		t.Fatal("synthetic rollout never trained a challenger")
	}
	if counts.Promotions+counts.Rollbacks == 0 {
		t.Fatal("synthetic rollout never reached a verdict")
	}
}

func TestSyntheticRolloutDeterministic(t *testing.T) {
	a := SyntheticRollout(3, 6, 16, DefaultConfig(3))
	b := SyntheticRollout(3, 6, 16, DefaultConfig(3))
	if a != b {
		t.Fatalf("synthetic rollout not deterministic: %+v vs %+v", a, b)
	}
}

// BenchmarkRolloutLoop times the staged-rollout hot path; cmd/benchgate
// gates rollout_ns_per_op on the same work.
func BenchmarkRolloutLoop(b *testing.B) {
	cfg := DefaultConfig(4)
	cfg.MinTrainRows = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := SyntheticRollout(4, 8, 24, cfg); c.Retrains == 0 {
			b.Fatal("no retrain happened")
		}
	}
}

func TestPinServesPerCellGenerations(t *testing.T) {
	// Two cells' servers pinned to different release versions serve
	// different predictions concurrently — the staged-rollout serving
	// contract.
	canary := predict.NewServer(nil, fixedUM(0.9))
	control := predict.NewServer(nil, fixedUM(0.1))
	canary.Pin(1, nil, fixedUM(0.9))
	control.Pin(0, nil, fixedUM(0.1))
	if canary.Generation() == control.Generation() {
		t.Fatal("cells must pin distinct generations")
	}
	got, err := canary.PredictUntouched(1, []float64{0})
	if err != nil || got != 0.9 {
		t.Fatalf("canary served %g (%v)", got, err)
	}
	got, err = control.PredictUntouched(1, []float64{0})
	if err != nil || got != 0.1 {
		t.Fatalf("control served %g (%v)", got, err)
	}
	// Re-pinning the same generation keeps the cache warm.
	control.Pin(0, nil, fixedUM(0.5))
	got, _ = control.PredictUntouched(1, []float64{0})
	if got != 0.1 {
		t.Fatalf("same-generation re-pin must be a no-op, served %g", got)
	}
	// A new generation installs and invalidates.
	control.Pin(2, nil, fixedUM(0.5))
	got, _ = control.PredictUntouched(1, []float64{0})
	if got != 0.5 {
		t.Fatalf("new-generation pin must swap models, served %g", got)
	}
}

func TestCanaryRingRotatesPerRelease(t *testing.T) {
	// Five releases over a four-cell fleet at one canary cell each must
	// bake on rings 0, 1, 2, 3, then wrap back to 0 — bake exposure is
	// spread across the fleet instead of always pinning cell 0.
	cfg := testConfig(4)
	cfg.CanaryFraction = 0.25
	m := NewManager(cfg, fixedUM(0.5))

	var starts []Event
	lo, hi := -1, -1
	now := 0.0
	for release := 1; release <= 5; release++ {
		now += 10 // comfortably past every bake window
		rows := make([][]Row, 4)
		obs := make([][]mlops.Obs, 4)
		for c := 0; c < 4; c++ {
			r, _ := feed(8, 0, 0.5, -1, 0, 0.5)
			rows[c] = r
		}
		if lo >= 0 {
			// The baking challenger loses badly on its canary cells, so
			// every release rolls back and the champion stays version 0.
			for c := lo; c <= hi; c++ {
				_, o := feed(8, 0, 0.5, release-1, 0.95, 0.5)
				obs[c] = o
			}
		}
		evs, err := m.Tick(now, rows, obs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if e.Kind == EventCanaryStart {
				starts = append(starts, e)
				lo, hi = e.CanaryLo, e.CanaryHi
			}
		}
	}

	want := [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {0, 0}}
	if len(starts) != len(want) {
		t.Fatalf("saw %d canary starts, want %d: %v", len(starts), len(want), starts)
	}
	for i, e := range starts {
		if e.Ver != i+1 {
			t.Fatalf("canary start %d is release %d, want %d", i, e.Ver, i+1)
		}
		if e.CanaryLo != want[i][0] || e.CanaryHi != want[i][1] {
			t.Fatalf("release %d baked on cells %d-%d, want %d-%d",
				e.Ver, e.CanaryLo, e.CanaryHi, want[i][0], want[i][1])
		}
	}
}

func TestRingForUnevenFleet(t *testing.T) {
	// Five cells at two canary cells per ring: rings are [0,1], [2,3],
	// and the clamped [4,4]; release numbers rotate through them.
	cfg := testConfig(5)
	cfg.CanaryFraction = 0.4
	m := NewManager(cfg, fixedUM(0.5))
	for _, tc := range []struct{ ver, lo, hi int }{
		{1, 0, 1}, {2, 2, 3}, {3, 4, 4}, {4, 0, 1}, {5, 2, 3}, {6, 4, 4},
	} {
		lo, hi := m.ringFor(tc.ver)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("ringFor(%d) = %d-%d, want %d-%d", tc.ver, lo, hi, tc.lo, tc.hi)
		}
	}
}
