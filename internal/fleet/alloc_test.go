package fleet

import (
	"testing"

	"pond/internal/stats"
)

// TestWarmedCellSteadyStateAllocs pins the tentpole claim behind the
// zero-alloc hot path: once a cell has churned long enough for its
// freelists (runningVM records, placements, telemetry sample buffers)
// and scratch buffers (log line, counter vector, feature slice) to warm
// up, advancing simulated time allocates essentially nothing per event.
//
// The measured loop covers arrivals, departures, QoS monitoring, and
// accounting. The only allowed residue is amortized container growth —
// the event log and per-customer histories genuinely accumulate — so
// the budget is a handful of allocations per *simulated second* (tens
// of events), not per event. Before the hot-path work this figure was
// in the thousands; a regression that boxes events or reallocates
// buffers per admission trips the bound immediately.
func TestWarmedCellSteadyStateAllocs(t *testing.T) {
	o := testOptions()
	o.Cluster.Cells = 1
	o.Cluster.DurationSec = 2000
	o.Arrivals = ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.2, MeanLifetimeSec: 200}

	sim, err := newCellSim(0, o, nil, 0, stats.NewRand(o.Engine.Seed))
	if err != nil {
		t.Fatal(err)
	}
	// Warm: churn through several mean lifetimes so the population — and
	// with it every freelist — has reached steady state.
	if err := sim.runUntil(1000, false); err != nil {
		t.Fatal(err)
	}

	now := 1000.0
	avg := testing.AllocsPerRun(100, func() {
		now += 5
		if err := sim.runUntil(now, false); err != nil {
			t.Fatal(err)
		}
	})
	// 5 simulated seconds ≈ one arrival and one departure on average.
	// Zero-alloc steady state with amortized-growth slack: anything
	// above a few allocs per run means a per-event allocation came back.
	t.Logf("avg allocs per 5s slice: %.2f", avg)
	if avg > 8 {
		t.Fatalf("steady-state allocations = %.1f per 5s slice, want ~0 (amortized growth only)", avg)
	}
}

// TestWarmedCellSteadyStateAllocsPredictionsOn is the same warmed cell
// with predictions on: the Figure 13 control plane decides every
// admission, the cell-scoped mlops manager shadow-scores it (monitor-
// only: the run has no retrain ticks), and pool-backed VMs go through
// the Pool Manager's add/release path. The measured window must
// actually place pool memory, or the pool path went untested.
func TestWarmedCellSteadyStateAllocsPredictionsOn(t *testing.T) {
	o := testOptions()
	o.Cluster.Cells = 1
	o.Cluster.DurationSec = 2000
	o.Arrivals = ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.2, MeanLifetimeSec: 200}
	o.Model.Disabled = false

	insens, threshold := trainInsens(o)
	sim, err := newCellSim(0, o, insens, threshold, stats.NewRand(o.Engine.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if sim.mgr == nil {
		t.Fatal("predictions on, cell scope: no mlops manager")
	}
	if err := sim.runUntil(1000, false); err != nil {
		t.Fatal(err)
	}

	// One AllocsPerRun call spans a whole 100-slice window, so its
	// result is the window's exact allocation count: a per-slice call
	// would floor the average to an integer and hide a regression of
	// under one allocation per slice. (AllocsPerRun runs the window once
	// more first, from t=1000, as a warm-up.)
	const slices = 100
	now := 1000.0
	var placed float64
	total := testing.AllocsPerRun(1, func() {
		before := sim.placedPoolGB
		for i := 0; i < slices; i++ {
			now += 5
			if err := sim.runUntil(now, false); err != nil {
				t.Fatal(err)
			}
		}
		placed = sim.placedPoolGB - before
	})
	avg := total / slices
	t.Logf("avg allocs per 5s slice: %.2f (%.0f in %d slices), pool GB placed in the window: %g", avg, total, slices, placed)
	if placed <= 0 {
		t.Fatal("no pool memory placed in the measured window: the pool path did not run")
	}
	// Pinned at the measured value (211–213 allocations in the window
	// with go1.24 on linux/amd64, with and without -race; the margin
	// absorbs the runtime's own odd allocation).
	// What remains is about one allocation per pool grant (its slice
	// list, which the placement keeps), per refused grant (the lazily
	// rendered exhaustion error) and per release (the sort's swapper).
	// An eagerly formatted error, a fill-order sort that boxes, a device
	// assignment into a fresh slice, a pending-release list that
	// regrows, or a monitor-only manager that copies features or
	// counters each push it above.
	if avg > 2.2 {
		t.Fatalf("steady-state allocations = %.2f per 5s slice, want at most 2.2", avg)
	}
}
