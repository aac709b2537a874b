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
