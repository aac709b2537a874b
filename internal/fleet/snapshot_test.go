package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// snapshotCases are the configurations the round-trip tests cover: the
// plain cell-scoped path, the barriered fleet-scope release train, and
// the elastic pool — every subsystem a snapshot must carry.
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

	return map[string]Options{
		"cell-scope":  plain,
		"fleet-scope": fleetScope,
		"elastic":     elastic,
	}
}

// TestSnapshotRestoreMatchesUninterrupted is the tentpole's correctness
// bar: snapshot at a mid-run safe point, restore in a fresh Runner
// (through the JSON wire form, as a fresh process would), and the
// remaining event log plus the final report hash must be byte-identical
// to the uninterrupted batch run — for worker counts 1 and 4.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
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

				r, err := NewRunner(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Advance(ctx, 170); err != nil {
					t.Fatal(err)
				}
				drained := r.DrainEvents()
				prefix := ""
				// Reassemble the drained prefix per stream for the byte check
				// below: cells in cell order, fleet last — report layout.
				perCell := make([]string, o.Cluster.Cells)
				fleetPart := ""
				for _, ev := range drained {
					if ev.Cell < 0 {
						fleetPart += ev.Line + "\n"
					} else {
						perCell[ev.Cell] += ev.Line + "\n"
					}
				}
				for _, s := range perCell {
					prefix += s
				}
				prefix += fleetPart

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

				restored, err := RestoreRunner(ctx, o, &loaded)
				if err != nil {
					t.Fatal(err)
				}
				if restored.Now() != r.Now() {
					t.Fatalf("restored clock %g, want %g", restored.Now(), r.Now())
				}
				rep, err := restored.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.LogSHA256 != batch.LogSHA256 {
					gotLines := splitLines(rep.EventLog)
					wantLines := splitLines(batch.EventLog)
					line, g, w := firstDiff(gotLines, wantLines)
					t.Fatalf("restored run hash %s, batch %s; first divergence at line %d:\n  got:  %s\n  want: %s",
						rep.LogSHA256, batch.LogSHA256, line, g, w)
				}
				if rep.EventLog != batch.EventLog {
					t.Fatalf("restored EventLog differs from batch (%d vs %d bytes)", len(rep.EventLog), len(batch.EventLog))
				}
				if rep.Events != batch.Events {
					t.Fatalf("restored Events=%d, batch %d", rep.Events, batch.Events)
				}

				// The remaining log after the snapshot point must be exactly
				// the batch log minus the drained prefix, stream by stream.
				restored2, err := RestoreRunner(ctx, o, snap)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored2.Advance(ctx, o.Cluster.DurationSec); err != nil {
					t.Fatal(err)
				}
				rest := restored2.DrainEvents()
				perCell2 := make([]string, o.Cluster.Cells)
				fleet2 := ""
				for _, ev := range rest {
					if ev.Cell < 0 {
						fleet2 += ev.Line + "\n"
					} else {
						perCell2[ev.Cell] += ev.Line + "\n"
					}
				}
				if _, err := restored2.Finish(ctx); err != nil {
					t.Fatal(err)
				}
				final := restored2.DrainEvents()
				for _, ev := range final {
					if ev.Cell < 0 {
						fleet2 += ev.Line + "\n"
					} else {
						perCell2[ev.Cell] += ev.Line + "\n"
					}
				}
				full := ""
				for i := range perCell2 {
					full += perCell[i] + perCell2[i]
				}
				full += fleetPart + fleet2
				if full != batch.EventLog {
					t.Fatalf("drained-prefix + restored-remainder reassembly differs from batch log (%d vs %d bytes)",
						len(full), len(batch.EventLog))
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
	if _, err := RestoreRunner(ctx, o, &bad); err == nil {
		t.Fatal("wrong snapshot version accepted")
	}
	bad = *snap
	bad.Cells = snap.Cells[:1]
	if _, err := RestoreRunner(ctx, o, &bad); err == nil {
		t.Fatal("truncated cell list accepted")
	}
	if _, err := RestoreRunner(ctx, o, nil); err == nil {
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
			s.Cells[1].Heap = tc.mutate(s.Cells[1].Heap)
			restored, err := RestoreRunner(ctx, o, &s)
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
	restored, err := RestoreRunner(ctx, o, &s)
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
	if snap.Cells[0].Mlops == nil {
		t.Fatal("snapshot has no cell-scoped model lifecycle")
	}
	snap.Cells[0].Heap = pushed(snap.Cells[0].Heap, EventState{Kind: evRetrain})
	if _, err := RestoreRunner(ctx, o, snap); err == nil || !strings.Contains(err.Error(), "cell 0") ||
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
	if err := r.AddInjection(Injection{kind: InjectSurge, atSec: 250, durSec: 50, factor: 2}); err != nil {
		t.Fatalf("injection at t=250 refused after Advance(50): %v", err)
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batchOpts := r.Options()
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
	restored, err := RestoreRunner(ctx, o, &loaded)
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
				if _, err := RestoreRunner(ctx, o, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
