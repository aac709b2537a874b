package mlops

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/workload"
)

func coreDecision() core.Decision { return core.Decision{} }

// testVM builds a VM whose ground-truth untouched fraction is known.
func testVM(id int, untouched float64) cluster.VMRequest {
	w := workload.Catalogue()[id%4]
	return cluster.VMRequest{
		ID:       cluster.VMID(id),
		Customer: cluster.CustomerID(1 + id%8),
		Type:     cluster.VMTypes()[0],
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: untouched,
			Workload:      w,
		},
	}
}

// feats is an untouched-memory feature vector whose first entry tracks
// the label, so a trained GBM can actually learn the mapping.
func feats(label float64) []float64 {
	x := make([]float64, predict.UMFeatureCount)
	x[0], x[1], x[2], x[3] = label, 1, 2, 3
	return x
}

func testConfig() Config {
	c := DefaultConfig()
	c.MinTrainRows = 16
	c.MinHoldout = 8
	c.HoldoutWindow = 32
	return c
}

// drive feeds n (decision, outcome) pairs with the given untouched
// fraction through the manager.
func drive(m *Manager, startID, n int, untouched float64) {
	for i := 0; i < n; i++ {
		vm := testVM(startID+i, untouched)
		m.ObserveDecision(vm, nil, feats(untouched), coreDecision())
		m.ObserveOutcome(vm, pmu.Vector{}, false)
	}
}

func TestUMLossAsymmetric(t *testing.T) {
	if got := UMLoss(0.8, 0.5, 3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("overprediction loss = %v", got)
	}
	if got := UMLoss(0.2, 0.5, 3); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("underprediction loss = %v", got)
	}
	if UMLoss(0.5, 0.5, 3) != 0 {
		t.Fatal("exact prediction should cost nothing")
	}
}

func TestChallengerPromotionAndDemotion(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)

	// Phase 1: the bootstrap champion predicts 0 while the truth is a
	// learnable 0.6 — a trained challenger must get promoted.
	drive(m, 0, 24, 0.6)
	ev := m.Tick(100) // trains ver 1
	if len(ev) != 1 || ev[0].Kind != EventRetrain || ev[0].Ver != 1 {
		t.Fatalf("first tick events = %v", ev)
	}
	drive(m, 100, 24, 0.6)
	ev = m.Tick(200)
	if len(ev) == 0 || ev[0].Kind != EventPromote || ev[0].Family != FamilyUM {
		t.Fatalf("expected promotion, got %v", ev)
	}
	q := m.Quality()
	if q.UMChampVer != 1 || q.Promotions != 1 {
		t.Fatalf("quality after promotion = %+v", q)
	}

	// The serving layer must now predict ~0.6 (hot-swapped model).
	frac, err := srv.PredictUntouched(42, feats(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.3 {
		t.Fatalf("server still serves the old champion: %v", frac)
	}

	// Phase 2: the world flips to 0 untouched. The fallback (Fixed 0) is
	// now perfect while the promoted champion overpredicts, so the next
	// verdict demotes.
	drive(m, 200, 24, 0)
	ev = m.Tick(300)
	demoted := false
	for _, e := range ev {
		if e.Kind == EventDemote && e.Family == FamilyUM {
			demoted = true
			if e.Ver != 0 {
				t.Fatalf("demotion restored ver %d, want 0", e.Ver)
			}
		}
	}
	if !demoted {
		t.Fatalf("expected demotion, got %v", ev)
	}
	if q := m.Quality(); q.UMChampVer != 0 || q.Demotions != 1 {
		t.Fatalf("quality after demotion = %+v", q)
	}
}

func TestNoPromotionWithoutHoldout(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
	drive(m, 0, 24, 0.6)
	m.Tick(100) // trains ver 1
	// No shadow observations for the challenger yet: next tick must not
	// promote, and must not replace the unjudged challenger either.
	ev := m.Tick(200)
	for _, e := range ev {
		if e.Kind != EventRetrain || e.Family != FamilyInsens {
			t.Fatalf("unexpected event before holdout filled: %v", e)
		}
	}
	if q := m.Quality(); q.UMChampVer != 0 {
		t.Fatalf("champion changed without holdout: %+v", q)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 3, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
	drive(m, 0, 24, 0.6)
	m.Tick(100)
	snaps, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var chall *ModelSnapshot
	for i := range snaps {
		if snaps[i].Cell != 3 {
			t.Fatalf("snapshot cell = %d", snaps[i].Cell)
		}
		if snaps[i].Family == FamilyUM && snaps[i].Role == "challenger" {
			chall = &snaps[i]
		}
	}
	if chall == nil || chall.Ver != 1 || chall.Rows != 24 || chall.TrainedAtSec != 100 {
		t.Fatalf("challenger snapshot = %+v", chall)
	}
	// The dumped model is the one the state loader rebuilds.
	rebuilt, err := loadUMState(&UMModelState{Model: chall.Model, Margin: m.um.Chall.(*predict.GBMUntouched).Margin})
	if err != nil {
		t.Fatal(err)
	}
	x := feats(0.6)
	if got, want := rebuilt.PredictUntouchedFrac(x), m.um.Chall.PredictUntouchedFrac(x); got != want {
		t.Fatalf("rebuilt model predicts %v, original %v", got, want)
	}
}

func TestLifecycleEventsDeterministic(t *testing.T) {
	run := func() string {
		srv := predict.NewServer(nil, predict.FixedUntouched{Frac: 0})
		m := NewManager(testConfig(), 0, srv, nil, 0, predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)
		var sb strings.Builder
		for round := 0; round < 4; round++ {
			drive(m, round*32, 32, 0.4)
			for _, e := range m.Tick(float64(100 * (round + 1))) {
				sb.WriteString(e.String())
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("lifecycle events differ between identical runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "retrain") {
		t.Fatal("no retrain events produced")
	}
}

// TestConcurrentScoringDuringSwap hammers the manager (and through it
// predict.Server.Swap) from concurrent goroutines; run under -race this
// is the swap-safety stress test.
func TestConcurrentScoringDuringSwap(t *testing.T) {
	srv := predict.NewServer(predict.CounterThreshold{Counter: pmu.DRAMBound}, predict.FixedUntouched{Frac: 0})
	m := NewManager(testConfig(), 0, srv, predict.CounterThreshold{Counter: pmu.DRAMBound}, 0.5,
		predict.FixedUntouched{Frac: 0}, 1.82, 0.05, nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				vm := testVM(id, 0.5)
				m.ObserveDecision(vm, nil, feats(0.5), coreDecision())
				if _, err := srv.PredictUntouched(int64(id), feats(0.5)); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.ScoreInsensitivity(int64(id), pmu.Vector{}); err != nil {
					t.Error(err)
					return
				}
				m.ObserveOutcome(vm, pmu.Vector{}, true)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			m.Tick(float64(i))
		}
	}()
	wg.Wait()
}

// TestMonitorOnlyKeepsNoCorpus drives a retraining and a monitor-only
// manager with the same admissions and outcomes. Until a tick, both
// must hold the same holdout windows, loss sums and pending scores; the
// monitor-only one must store no training rows or pending features,
// serialize none, and drop those of a state that carries them.
func TestMonitorOnlyKeepsNoCorpus(t *testing.T) {
	build := func(monitorOnly bool) *Manager {
		cfg := testConfig()
		cfg.MonitorOnly = monitorOnly
		ins := predict.CounterThreshold{Counter: pmu.DRAMBound}
		return NewManager(cfg, 0, nil, ins, 0.5, predict.FixedUntouched{Frac: 0.2}, 1.82, 0.05, nil)
	}
	feed := func(m *Manager) {
		for i := 0; i < 80; i++ {
			vm := testVM(i, float64(i%5)/5)
			m.ObserveDecision(vm, nil, feats(vm.GroundTruth.UntouchedFrac), coreDecision())
			if i%7 == 6 {
				continue // still running: its score stays pending
			}
			var ctr pmu.Vector
			ctr[pmu.DRAMBound] = float64(i%3) / 3
			m.ObserveOutcome(vm, ctr, true)
		}
	}
	retrain, monitor := build(false), build(true)
	feed(retrain)
	feed(monitor)

	if len(monitor.umX)+len(monitor.umY)+len(monitor.insX)+len(monitor.insY) != 0 {
		t.Fatalf("monitor-only manager kept rows: um %d/%d, insens %d/%d",
			len(monitor.umX), len(monitor.umY), len(monitor.insX), len(monitor.insY))
	}
	if len(retrain.umX) == 0 || len(retrain.insX) == 0 {
		t.Fatal("retraining manager kept no rows")
	}
	rs, err := retrain.State()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := monitor.State()
	if err != nil {
		t.Fatal(err)
	}
	mj := mustJSON(t, ms)
	for _, key := range []string{`"um_x"`, `"um_y"`, `"ins_x"`, `"ins_y"`, `"feats"`} {
		if strings.Contains(mj, key) {
			t.Fatalf("monitor-only state carries %s", key)
		}
	}
	// Apart from the rows, the two states are the same bytes.
	stripped := rs
	stripped.UMX, stripped.UMY, stripped.InsX, stripped.InsY = nil, nil, nil, nil
	stripped.Pending = slices.Clone(rs.Pending)
	for i := range stripped.Pending {
		stripped.Pending[i].Feats = nil
	}
	if sj := mustJSON(t, stripped); sj != mj {
		t.Fatalf("monitor-only state differs beyond the rows:\n%s\nvs\n%s", mj, sj)
	}
	if retrain.Quality() != monitor.Quality() {
		t.Fatalf("quality differs: %+v vs %+v", retrain.Quality(), monitor.Quality())
	}

	// A state written with rows restores onto a monitor-only manager
	// without them.
	restored := build(true)
	if err := restored.SetState(rs); err != nil {
		t.Fatal(err)
	}
	again, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, again); got != mj {
		t.Fatalf("restored monitor-only state:\n%s\nwant\n%s", got, mj)
	}
}

// TestMonitorOnlyOutcomeAllocs pins that closing an outcome copies no
// counters and appends no row once the holdout windows are full.
func TestMonitorOnlyOutcomeAllocs(t *testing.T) {
	for _, monitorOnly := range []bool{true, false} {
		cfg := testConfig()
		cfg.MonitorOnly = monitorOnly
		m := NewManager(cfg, 0, nil, predict.CounterThreshold{Counter: pmu.DRAMBound}, 0.5,
			predict.FixedUntouched{Frac: 0.2}, 1.82, 0.05, nil)
		// Fill both holdout windows to their cap, then score the VMs the
		// measured outcomes close.
		drive(m, 0, 2*cfg.HoldoutWindow, 0.4)
		for i := 0; i < cfg.HoldoutWindow; i++ {
			m.ObserveOutcome(testVM(i, 0.4), pmu.Vector{}, true)
		}
		const runs = 50
		vms := make([]cluster.VMRequest, runs+1)
		for i := range vms {
			vms[i] = testVM(1000+i, 0.4)
			m.ObserveDecision(vms[i], nil, feats(0.4), coreDecision())
		}
		next := 0
		avg := testing.AllocsPerRun(runs, func() {
			m.ObserveOutcome(vms[next], pmu.Vector{}, true)
			next++
		})
		if monitorOnly && avg != 0 {
			t.Fatalf("monitor-only ObserveOutcome allocates %.1f times per outcome, want 0", avg)
		}
		if !monitorOnly && avg < 1 {
			t.Fatalf("retraining ObserveOutcome allocates %.1f times per outcome; the row copy went missing", avg)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
