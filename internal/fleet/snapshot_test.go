package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// snapshotCases are the configurations the round-trip tests cover: the
// plain cell-scoped path, the barriered fleet-scope release train, and
// the elastic pool — every subsystem a snapshot must carry. A second
// elastic case plans every 50 s, so a t=170 snapshot holds three plans
// in a four-slot history the next barrier appends into.
func snapshotCases() map[string]Options {
	plain := testOptions()
	plain.Model.Disabled = false
	plain.Model.RetrainEverySec = 100
	plain.Model.MinTrainRows = 16
	plain.Injections = mustParseInjections("emc-fail@t=200")

	fleetScope := testOptions()
	fleetScope.Model.Disabled = false
	fleetScope.Arrivals.RatePerSec = 0.2
	fleetScope.Model.RetrainEverySec = 100
	fleetScope.Model.MinTrainRows = 16
	fleetScope.Model.Scope = ScopeFleet
	fleetScope.Injections = mustParseInjections("surge@t=100:dur=100:x=3")

	elastic := testOptions()
	elastic.Model.Disabled = false
	elastic.Arrivals.RatePerSec = 0.2
	elastic.Capacity.Elastic = true
	elastic.Capacity.PlanEverySec = 100
	elastic.Injections = mustParseInjections("resize@t=150:emc=1:slices=-8,drift@t=250:mag=0.5")

	elastic50 := elastic
	elastic50.Capacity.PlanEverySec = 50

	return map[string]Options{
		"cell-scope":      plain,
		"fleet-scope":     fleetScope,
		"elastic":         elastic,
		"elastic-plan-50": elastic50,
	}
}

// TestSnapshotRestoreMatchesUninterrupted is the snapshot's correctness
// bar. Each case pauses a run at t=170, drains it and snapshots it; then
// four runs advance to the horizon together, one slice each in turn: the
// original, one restored through the JSON wire form (as a fresh process
// would), one restored from the same in-memory snapshot that drains as
// it goes, and a fork restored from that snapshot and given a live surge
// before its next barrier. Each must match its own batch run — hash,
// event log, plan and served-version histories — and the snapshot must
// still encode to its first bytes afterwards: the snapshot shares no
// memory with any of the runs. Worker counts 1 and 4.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	surge, err := ParseInjection("surge@t=175:dur=150:x=4")
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range snapshotCases() {
		for _, workers := range []int{1, 4} {
			o := o
			o.Engine.Workers = workers
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				batch, err := Run(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				forkOpts := o
				forkOpts.Injections = append(o.Injections[:len(o.Injections):len(o.Injections)], surge)
				forkBatch, err := Run(ctx, forkOpts)
				if err != nil {
					t.Fatal(err)
				}

				r, err := NewRunner(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Advance(ctx, 170); err != nil {
					t.Fatal(err)
				}
				// The drained prefix and, below, the resumed run's remainder
				// per stream: cells in cell order, fleet last — report layout.
				perCell := make([]string, o.Cluster.Cells+1)
				drain := func(evs []LogEvent) {
					for _, ev := range evs {
						i := ev.Cell
						if i < 0 {
							i = o.Cluster.Cells
						}
						perCell[i] += ev.Line + "\n"
					}
				}
				drain(r.DrainEvents())

				snap, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				wire, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var loaded Snapshot
				if err := json.Unmarshal(wire, &loaded); err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreRunner(ctx, &loaded)
				if err != nil {
					t.Fatal(err)
				}
				if restored.Now() != r.Now() {
					t.Fatalf("restored clock %g, want %g", restored.Now(), r.Now())
				}
				resumed, err := RestoreRunner(ctx, snap)
				if err != nil {
					t.Fatal(err)
				}
				forked, err := RestoreRunner(ctx, snap)
				if err != nil {
					t.Fatal(err)
				}
				if err := forked.Inject(surge); err != nil {
					t.Fatal(err)
				}

				runs := []struct {
					name string
					run  *Runner
					want *Report
				}{
					{"original", r, batch},
					{"wire-restored", restored, batch},
					{"resumed", resumed, batch},
					{"fork", forked, forkBatch},
				}
				for at := r.Now(); !r.Done(); {
					at += 25
					for _, c := range runs {
						if err := c.run.Advance(ctx, at); err != nil {
							t.Fatalf("%s: %v", c.name, err)
						}
					}
					drain(resumed.DrainEvents())
				}
				for _, c := range runs {
					rep, err := c.run.Finish(ctx)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					if rep.LogSHA256 != c.want.LogSHA256 {
						line, g, w := firstDiff(splitLines(rep.EventLog), splitLines(c.want.EventLog))
						t.Fatalf("%s: hash %s, batch %s; first divergence at line %d:\n  got:  %s\n  want: %s",
							c.name, rep.LogSHA256, c.want.LogSHA256, line, g, w)
					}
					if rep.EventLog != c.want.EventLog || rep.Events != c.want.Events {
						t.Fatalf("%s: EventLog differs from batch (%d vs %d bytes, %d vs %d events)",
							c.name, len(rep.EventLog), len(c.want.EventLog), rep.Events, c.want.Events)
					}
					if !reflect.DeepEqual(rep.PlanHistory, c.want.PlanHistory) {
						t.Fatalf("%s: plan history differs from batch:\n  got:  %v\n  want: %v", c.name, rep.PlanHistory, c.want.PlanHistory)
					}
					for i := range rep.Cells {
						if g, w := rep.Cells[i].ServedVersions, c.want.Cells[i].ServedVersions; !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: cell %d served versions %v, batch %v", c.name, i, g, w)
						}
					}
				}

				// The remaining log after the snapshot point must be exactly
				// the batch log minus the drained prefix, stream by stream.
				drain(resumed.DrainEvents())
				if full := strings.Join(perCell, ""); full != batch.EventLog {
					t.Fatalf("drained-prefix + resumed-remainder reassembly differs from batch log (%d vs %d bytes)",
						len(full), len(batch.EventLog))
				}
				again, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, wire) {
					t.Fatal("the snapshot changed while the runs it seeded advanced")
				}
			})
		}
	}
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestSnapshotRefusedAfterFinish pins the safe-point contract: a
// finished run cannot be snapshotted.
func TestSnapshotRefusedAfterFinish(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("snapshot of a finished run succeeded")
	}
}

// TestRestoreRejectsVersionAndShape pins the validation surface.
func TestRestoreRejectsVersionAndShape(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 50); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := RestoreRunner(ctx, &bad); err == nil {
		t.Fatal("wrong snapshot version accepted")
	}
	bad = *snap
	bad.Sim.Version = SnapshotVersion + 1
	if _, err := RestoreRunner(ctx, &bad); err == nil {
		t.Fatal("wrong sim state version accepted")
	}
	bad = *snap
	bad.Sim.Cells = snap.Sim.Cells[:1]
	if _, err := RestoreRunner(ctx, &bad); err == nil {
		t.Fatal("truncated cell list accepted")
	}
	if _, err := RestoreRunner(ctx, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// pushed adds one event to a snapshotted heap the way the cell queue
// would, sifting it up so the heap order holds and only the field under
// test is wrong. By default it fires at t=250: after a t=200 safe point,
// before a 400 s horizon, so an unchecked restore pops it on the next
// Advance.
func pushed(h []EventState, ev EventState) []EventState {
	if ev.At == 0 {
		ev.At = 250
	}
	ev.Seq = seqRuntimeBand + 1<<30
	h = append(h, ev)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[i].At < h[j].At || (h[i].At == h[j].At && h[i].Seq < h[j].Seq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// TestRestoreRejectsTamperedHeap pins that a restore checks every
// pending event against the rebuilt cell instead of trusting the
// snapshot. Each mutation is applied to a real mid-run snapshot after a
// JSON round trip; an unchecked restore would succeed and the next
// Advance panic (index out of range, a nil model manager) — at
// workers > 1 on an engine goroutine, killing the process.
func TestRestoreRejectsTamperedHeap(t *testing.T) {
	ctx := context.Background()
	o := testOptions() // predictions off: no cell-scoped model manager
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]EventState) []EventState
		want   string
	}{
		{"arrival-index", func(h []EventState) []EventState {
			return pushed(h, EventState{Kind: evArrive, Idx: 1 << 30})
		}, "arrival"},
		{"injection-index", func(h []EventState) []EventState {
			return pushed(h, EventState{Kind: evInject, Idx: 7})
		}, "injection"},
		{"retrain-without-manager", func(h []EventState) []EventState {
			return pushed(h, EventState{Kind: evRetrain})
		}, "retrain tick"},
		{"unknown-kind", func(h []EventState) []EventState {
			return pushed(h, EventState{Kind: 9})
		}, "unknown kind"},
		{"nan-time", func(h []EventState) []EventState {
			return pushed(h, EventState{At: math.NaN(), Kind: evDepart})
		}, "finite time"},
		{"inf-time", func(h []EventState) []EventState {
			return pushed(h, EventState{At: math.Inf(1), Kind: evDepart})
		}, "finite time"},
		{"before-safe-point", func(h []EventState) []EventState {
			return pushed(h, EventState{At: 150, Kind: evDepart})
		}, "safe point"},
		{"heap-order", func(h []EventState) []EventState {
			h[0], h[len(h)-1] = h[len(h)-1], h[0]
			return h
		}, "heap order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Snapshot
			if err := json.Unmarshal(wire, &s); err != nil {
				t.Fatal(err)
			}
			s.Sim.Cells[1].Heap = tc.mutate(s.Sim.Cells[1].Heap)
			restored, err := RestoreRunner(ctx, &s)
			if err == nil {
				t.Fatalf("tampered heap restored; the run then reports %v", restored.Advance(ctx, o.Cluster.DurationSec))
			}
			if !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name cell 1 and %q", err, tc.want)
			}
		})
	}
	// The untampered snapshot still restores and finishes.
	var s Snapshot
	if err := json.Unmarshal(wire, &s); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunner(ctx, &s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsRetrainTickWhenMonitorOnly pins that a cell whose
// run never retrains refuses a snapshotted retrain tick: its
// monitor-only manager keeps no training rows, so a tick there would
// judge and train on a corpus the run never collected.
func TestRestoreRejectsRetrainTickWhenMonitorOnly(t *testing.T) {
	ctx := context.Background()
	o := testOptions()
	o.Cluster.Cells = 1
	o.Model.Disabled = false // cell scope, RetrainEverySec 0: monitor-only
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sim.Cells[0].Mlops == nil {
		t.Fatal("snapshot has no cell-scoped model lifecycle")
	}
	snap.Sim.Cells[0].Heap = pushed(snap.Sim.Cells[0].Heap, EventState{Kind: evRetrain})
	if _, err := RestoreRunner(ctx, snap); err == nil || !strings.Contains(err.Error(), "cell 0") ||
		!strings.Contains(err.Error(), "monitor-only") {
		t.Fatalf("restore error = %v, want a refused retrain tick in cell 0's monitor-only lifecycle", err)
	}
}

// TestAdvanceClampsToNow is the monotonic-clock regression test:
// advancing to the past neither rewinds the clock nor perturbs the run.
func TestAdvanceClampsToNow(t *testing.T) {
	o := testOptions()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 200 {
		t.Fatalf("Now() = %g, want 200", r.Now())
	}
	if err := r.Advance(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if r.Now() != 200 {
		t.Fatalf("Now() after Advance(50) = %g, want 200 (clock went backwards)", r.Now())
	}
	// An injection at a time after the true clock but before a bogus
	// rewound one must still be accepted.
	if err := r.Inject(Injection{kind: InjectSurge, atSec: 250, durSec: 50, factor: 2}); err != nil {
		t.Fatalf("injection at t=250 refused after Advance(50): %v", err)
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batchOpts := r.Config()
	batch, err := Run(ctx, batchOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("clamped run hash %s differs from batch %s", rep.LogSHA256, batch.LogSHA256)
	}
}

// TestCompactDrainedPreservesHash pins the compaction satellite: with
// drained-prefix compaction on, the runner releases drained bytes but
// the final report hash, event count, and the drained-stream reassembly
// all still match the uncompacted batch run.
func TestCompactDrainedPreservesHash(t *testing.T) {
	o := testOptions()
	o.Model.Disabled = false
	o.Injections = mustParseInjections("emc-fail@t=200")
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCompactDrained(true)
	perCell := make([]string, o.Cluster.Cells)
	fleetPart := ""
	drain := func() {
		for _, ev := range r.DrainEvents() {
			if ev.Cell < 0 {
				fleetPart += ev.Line + "\n"
			} else {
				perCell[ev.Cell] += ev.Line + "\n"
			}
		}
	}
	for _, tAt := range []float64{33, 90, 91, 250, 399} {
		if err := r.Advance(ctx, tAt); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	drain()
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("compacted run hash %s, batch %s", rep.LogSHA256, batch.LogSHA256)
	}
	if rep.Events != batch.Events {
		t.Fatalf("compacted Events=%d, batch %d", rep.Events, batch.Events)
	}
	if len(rep.EventLog) >= len(batch.EventLog) {
		t.Fatalf("compaction retained the whole log (%d bytes, batch %d)", len(rep.EventLog), len(batch.EventLog))
	}
	full := ""
	for i := range perCell {
		full += perCell[i]
	}
	full += fleetPart
	if full != batch.EventLog {
		t.Fatalf("drained reassembly differs from batch log (%d vs %d bytes)", len(full), len(batch.EventLog))
	}
	if got := EventLogSHA256(full, o.Cluster.Cells); got != batch.LogSHA256 {
		t.Fatalf("EventLogSHA256(reassembly) = %s, want %s", got, batch.LogSHA256)
	}
}

// TestSnapshotOfCompactedRunRestores covers the interaction of the two
// new mechanisms: a snapshot taken mid-run with compaction on carries
// the digest midstates, and the restored run still finishes with the
// batch hash.
func TestSnapshotOfCompactedRunRestores(t *testing.T) {
	o := testOptions()
	o.Model.Disabled = false
	ctx := context.Background()
	batch, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCompactDrained(true)
	if err := r.Advance(ctx, 180); err != nil {
		t.Fatal(err)
	}
	r.DrainEvents()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(wire, &loaded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunner(ctx, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := restored.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogSHA256 != batch.LogSHA256 {
		t.Fatalf("restored compacted run hash %s, batch %s", rep.LogSHA256, batch.LogSHA256)
	}
}

// BenchmarkRestoreRunner pins the O(state) restore claim: rebuilding a
// runner from a snapshot taken deep into a long horizon costs the same
// as from one taken early, because restore rebuilds live state instead
// of replaying elapsed simulated time. Run both pause depths and
// compare: the deep restore must not scale with the elapsed horizon.
func BenchmarkRestoreRunner(b *testing.B) {
	for _, pause := range []float64{1000, 18000} {
		b.Run(fmt.Sprintf("pause=%g", pause), func(b *testing.B) {
			o := testOptions()
			o.Cluster.DurationSec = 20000
			ctx := context.Background()
			r, err := NewRunner(ctx, o)
			if err != nil {
				b.Fatal(err)
			}
			r.SetCompactDrained(true)
			if err := r.Advance(ctx, pause); err != nil {
				b.Fatal(err)
			}
			r.DrainEvents()
			snap, err := r.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			wire, err := json.Marshal(snap)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(wire)), "snapshot-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s Snapshot
				if err := json.Unmarshal(wire, &s); err != nil {
					b.Fatal(err)
				}
				if _, err := RestoreRunner(ctx, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
