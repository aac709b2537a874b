package fleet

import (
	"context"
	"strings"
	"testing"
)

// runnerLog drives o through a Runner: advance to each pause point in
// turn, add the paired injection live, then finish. It returns the
// report and the event log reassembled from the drained stream — which
// must equal the report's own log byte for byte.
func runnerLog(t *testing.T, o Options, pauses []float64, live []Injection) *Report {
	t.Helper()
	ctx := context.Background()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	var events []LogEvent
	for i, at := range pauses {
		if err := r.Advance(ctx, at); err != nil {
			t.Fatalf("advance to %g: %v", at, err)
		}
		events = append(events, r.DrainEvents()...)
		if i < len(live) {
			if err := r.Inject(live[i]); err != nil {
				t.Fatalf("live inject %s at t=%g: %v", live[i], at, err)
			}
		}
	}
	rep, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events = append(events, r.DrainEvents()...)

	// Reassemble the cell-major log from the tagged stream the way a
	// pondserve client would: group lines by cell, cells ascending, the
	// fleet stream (-1) last.
	streams := make(map[int][]string)
	for _, e := range events {
		streams[e.Cell] = append(streams[e.Cell], e.Line)
	}
	var b strings.Builder
	for c := 0; c < rep.Options.Cluster.Cells; c++ {
		for _, line := range streams[c] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	for _, line := range streams[-1] {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if b.String() != rep.EventLog {
		t.Fatalf("drained stream does not reassemble into the report log:\nstream %d bytes, report %d bytes", b.Len(), len(rep.EventLog))
	}
	return rep
}

// batchEquivalent runs the one-shot Run with the live injections
// appended to the scheduled list — the batch configuration the Runner
// contract promises to match byte for byte.
func batchEquivalent(t *testing.T, o Options, live []Injection) *Report {
	t.Helper()
	o.Injections = append(append([]Injection{}, o.Injections...), live...)
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunnerLiveInjectionMatchesBatch is the determinism bridge at the
// fleet layer: every injection kind, added live at a mid-run safe
// point, must yield the event log of the equivalent batch run — at
// worker counts 1 and 4.
func TestRunnerLiveInjectionMatchesBatch(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*Options)
		pause float64
		spec  string
	}{
		{"emc-fail", nil, 150, "emc-fail@t=250:emc=1"},
		{"host-drain", nil, 100, "host-drain@t=300:host=2"},
		{"resize", nil, 200, "resize@t=260:emc=0:slices=-4"},
		// Drift and surge are baked into the pre-generated arrival
		// stream: the live path must regenerate it from the stored seed.
		{"drift", nil, 120, "drift@t=220:mag=0.7"},
		{"surge", nil, 90, "surge@t=150:dur=120:x=3"},
		{"drift-regional", nil, 120, "drift@t=220:cells=1-2:mag=0.6"},
		{"drift-trace", func(o *Options) {
			o.Arrivals = ArrivalOpts{Process: ArrivalTrace}
		}, 120, "drift@t=220:mag=0.7"},
		{"surge-elastic", func(o *Options) {
			o.Capacity.Elastic = true
			o.Capacity.PlanEverySec = 100
		}, 130, "surge@t=170:dur=100:x=3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions()
			if tc.tweak != nil {
				tc.tweak(&o)
			}
			in, err := ParseInjection(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var want *Report
			for _, workers := range []int{1, 4} {
				o.Engine.Workers = workers
				got := runnerLog(t, o, []float64{tc.pause}, []Injection{in})
				batch := batchEquivalent(t, o, []Injection{in})
				if got.EventLog != batch.EventLog {
					t.Fatalf("workers=%d: live log differs from batch log\nlive:  %d bytes sha=%s\nbatch: %d bytes sha=%s",
						workers, len(got.EventLog), got.LogSHA256, len(batch.EventLog), batch.LogSHA256)
				}
				if want == nil {
					want = got
				} else if got.LogSHA256 != want.LogSHA256 {
					t.Fatalf("live log differs between worker counts")
				}
			}
			if !strings.Contains(want.EventLog, "inject "+in.kind) {
				t.Fatalf("log does not show the live injection %s", in)
			}
		})
	}
}

// TestRunnerLiveInjectionOnScheduled stacks a live injection on top of
// a batch-scheduled one: indices shift by the scheduled prefix, and the
// equivalent batch run appends the live injection after it.
func TestRunnerLiveInjectionOnScheduled(t *testing.T) {
	o := testOptions()
	var err error
	o.Injections, err = ParseInjections("surge@t=50:dur=80:x=2.5,emc-fail@t=350")
	if err != nil {
		t.Fatal(err)
	}
	live, err := ParseInjection("drift@t=200:mag=0.5")
	if err != nil {
		t.Fatal(err)
	}
	got := runnerLog(t, o, []float64{140}, []Injection{live})
	batch := batchEquivalent(t, o, []Injection{live})
	if got.EventLog != batch.EventLog {
		t.Fatalf("live-on-scheduled log differs from batch (live sha=%s batch sha=%s)", got.LogSHA256, batch.LogSHA256)
	}
}

// TestRunnerSlicingChangesNoBytes re-runs a plain config under many
// pause points and no injections: slicing the horizon must be
// invisible, including for barriered configurations.
func TestRunnerSlicingChangesNoBytes(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		o := testOptions()
		if elastic {
			o.Capacity.Elastic = true
			o.Capacity.PlanEverySec = 70
		}
		batch, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		got := runnerLog(t, o, []float64{33, 90, 91, 250, 399}, nil)
		if got.EventLog != batch.EventLog {
			t.Fatalf("elastic=%t: sliced runner log differs from batch", elastic)
		}
	}
}

// TestRunnerAddInjectionValidation exercises the live-injection rules:
// no firing in the past, no injections after completion, and the shared
// ValidateInjection checks.
func TestRunnerAddInjectionValidation(t *testing.T) {
	ctx := context.Background()
	o := testOptions()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	past := Injection{kind: InjectEMCFail, atSec: 100}
	if err := r.Inject(past); err == nil || !strings.Contains(err.Error(), "before the current time") {
		t.Fatalf("past injection accepted: %v", err)
	}
	bad := Injection{kind: InjectEMCFail, atSec: 300, emc: 99}
	if err := r.Inject(bad); err == nil || !strings.Contains(err.Error(), "targets EMC") {
		t.Fatalf("out-of-range EMC accepted: %v", err)
	}
	beyond := Injection{kind: InjectEMCFail, atSec: o.Cluster.DurationSec + 1}
	if err := r.Inject(beyond); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("beyond-horizon injection accepted: %v", err)
	}
	if _, err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("finished runner not done")
	}
	after := Injection{kind: InjectEMCFail, atSec: 395}
	if err := r.Inject(after); err == nil || !strings.Contains(err.Error(), "completed") {
		t.Fatalf("post-completion injection accepted: %v", err)
	}
}

// TestRunnerAddInjectionArrivalCap pins that a live surge meets the
// per-cell arrival cap a batch-scheduled one does, and is refused before
// any cell sees it: the run then finishes with the hash of the run that
// was never offered the injection.
func TestRunnerAddInjectionArrivalCap(t *testing.T) {
	ctx := context.Background()
	o := testOptions()
	want, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"surge@t=200:dur=100:x=1e300", "surge@t=200:dur=100:x=2e5"} {
		in, err := ParseInjection(spec)
		if err != nil {
			t.Fatal(err)
		}
		batch := o
		batch.Injections = []Injection{in}
		if err := batch.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("%s: batch options validated: %v", spec, err)
		}
		r, err := NewRunner(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Advance(ctx, 100); err != nil {
			t.Fatal(err)
		}
		if err := r.Inject(in); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("%s: live injection not refused by the arrival cap: %v", spec, err)
		}
		if n := len(r.Config().Injections); n != 0 {
			t.Fatalf("%s: refused injection recorded (%d injections)", spec, n)
		}
		rep, err := r.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LogSHA256 != want.LogSHA256 {
			t.Fatalf("%s: refused injection changed the run: sha %s, want %s", spec, rep.LogSHA256, want.LogSHA256)
		}
	}
}

// TestRunnerProgress checks the safe-point snapshot advances with the
// clock and the counters move.
func TestRunnerProgress(t *testing.T) {
	ctx := context.Background()
	o := testOptions()
	r, err := NewRunner(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Progress()
	if p.NowSec != 0 || p.Done || p.Arrivals == 0 {
		t.Fatalf("fresh runner progress: %+v", p)
	}
	if err := r.Advance(ctx, 200); err != nil {
		t.Fatal(err)
	}
	mid := r.Progress()
	if mid.NowSec != 200 || mid.Placed == 0 {
		t.Fatalf("mid-run progress: %+v", mid)
	}
	if _, err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	end := r.Progress()
	if !end.Done || end.NowSec != o.Cluster.DurationSec {
		t.Fatalf("end progress: %+v", end)
	}
	if end.Departed <= mid.Departed {
		t.Fatalf("departures did not advance: mid=%d end=%d", mid.Departed, end.Departed)
	}
}
