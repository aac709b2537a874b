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
// The measured window covers arrivals, departures, QoS monitoring, and
// accounting. The only allowed residue is amortized container growth —
// the event log and per-customer histories genuinely accumulate — so
// the budget is a few dozen allocations per 500 simulated seconds
// (hundreds of events), not per event. Before the hot-path work this
// figure was in the thousands per second; a regression that boxes
// events or reallocates buffers per admission trips the bound
// immediately.
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

	const slices = 100
	total, _ := allocsPerWindow(t, sim, 1000, slices)
	// 5 simulated seconds ≈ one arrival and one departure on average.
	// Pinned at the measured value: 25 allocations in the window, 27
	// when the runtime adds its own pair (go1.24 on linux/amd64, with
	// and without -race). One more means a per-event allocation came
	// back.
	t.Logf("avg allocs per 5s slice: %.2f (%.0f in %d slices)", total/slices, total, slices)
	if total > 27 {
		t.Fatalf("steady-state allocations = %.0f in %d 5s slices, want at most 27 (amortized growth only)", total, slices)
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

	const slices = 100
	total, placed := allocsPerWindow(t, sim, 1000, slices)
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

// allocsPerWindow advances a warmed cell through a window of 5 s slices
// and returns the window's allocation count and the pool GB it placed.
// One AllocsPerRun call spans the whole window, so the count is exact:
// a per-slice call would floor the average to an integer and hide a
// regression of under one allocation per slice. AllocsPerRun runs the
// window once first as a warm-up, so the measured window starts
// slices×5 s after from.
func allocsPerWindow(t *testing.T, sim *cellSim, from float64, slices int) (allocs, placedPoolGB float64) {
	t.Helper()
	now := from
	allocs = testing.AllocsPerRun(1, func() {
		before := sim.placedPoolGB
		for i := 0; i < slices; i++ {
			now += 5
			if err := sim.runUntil(now, false); err != nil {
				t.Fatal(err)
			}
		}
		placedPoolGB = sim.placedPoolGB - before
	})
	return allocs, placedPoolGB
}
