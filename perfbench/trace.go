package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Parent is
// the index of the enclosing span (-1 for a root); Run groups the spans
// of one simulation run. N carries the span's work count where one
// exists (log lines drained, bytes streamed, snapshot bytes).
type span struct {
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Allocs int64   `json:"allocs"`
	N      int64   `json:"n,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory around the benchmark's own calls into
// the program's public functions; nothing inside the program is
// instrumented. A nil *tracer is the untraced mode: every method is a
// no-op, so the measured code paths are identical in both modes.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples []metrics.Sample
	// mark is the heap-allocation count at the last attribution point;
	// phase spans reported by the run's phase hook take the allocations
	// made since then.
	mark int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

// allocsLocked reads the process's cumulative heap-allocation count
// without stopping the world. Callers hold t.mu.
func (t *tracer) allocsLocked() int64 {
	metrics.Read(t.samples)
	return int64(t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64())
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// begin opens a span and returns its index.
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent,
		Start: t.since(time.Now()), Allocs: -t.allocsLocked()})
	return len(t.spans) - 1
}

// end closes span id, recording its work count n.
func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.since(time.Now())
	s.Allocs += t.allocsLocked()
	s.N = n
}

// markAllocs sets the allocation baseline the next phase span is
// charged from.
func (t *tracer) markAllocs() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mark = t.allocsLocked()
	t.mu.Unlock()
}

// phase records a span that just ended after secs seconds, as reported
// by FleetRun.SetPhaseHook, charging it the allocations since the last
// mark.
func (t *tracer) phase(name, run string, parent int, secs float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.since(time.Now())
	a := t.allocsLocked()
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent,
		Start: end - secs, End: end, Allocs: a - t.mark})
	t.mark = a
}

// hook returns a phase hook that records each engine phase as a child
// of parent under the layer name the phase belongs to.
func (t *tracer) hook(run string, parent int) func(phase string, atSec, secs float64) {
	if t == nil {
		return nil
	}
	return func(phase string, _, secs float64) {
		t.phase(phaseLayer[phase], run, parent, secs)
	}
}

// phaseLayer maps FleetRun phase names to the layer that does the work:
// an advance epoch is the cells' event loops (core, pmu, predict,
// telemetry, pool, host, emc) on the engine; retrain barriers are the
// mlops pipeline; plan barriers the capacity controller.
var phaseLayer = map[string]string{
	"advance": "fleet.advance",
	"retrain": "mlops.retrain",
	"plan":    "capacity.plan",
	"finish":  "fleet.finish",
}

// spanStats aggregates the spans named name whose run has the given
// prefix: total seconds, count, allocations, work, and the per-span
// durations.
type spanStats struct {
	secs   float64
	count  int
	allocs int64
	n      int64
	durs   []float64
}

func (t *tracer) stats(name, runPrefix string) spanStats {
	var st spanStats
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name != name || !strings.HasPrefix(s.Run, runPrefix) {
			continue
		}
		st.secs += s.dur()
		st.count++
		st.allocs += s.Allocs
		st.n += s.N
		st.durs = append(st.durs, s.dur())
	}
	return st
}

// layerRow is one row of the self-time table.
type layerRow struct {
	name  string
	spans int
	self  float64
}

// table computes each span's self time — its duration minus the union
// of its children's intervals — and sums it per span name. wall is the
// summed duration of the root spans (the traced wall time); covered is
// the part of it layer spans account for: everything but the self time
// of the benchmark's own trace.* glue spans. Spans on concurrent
// goroutines (the serve event follower) can overlap, so rows may sum to
// more than the wall time.
func (t *tracer) table() (rows []layerRow, wall, covered float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range t.spans {
		iv := make([][2]float64, 0, len(children[i]))
		for _, c := range children[i] {
			iv = append(iv, [2]float64{t.spans[c].Start, t.spans[c].End})
		}
		busy := unionWithin(iv, s.Start, s.End)
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.spans++
		r.self += s.dur() - busy
		if s.Parent < 0 {
			wall += s.dur()
		}
		if strings.HasPrefix(s.Name, "trace.") {
			covered -= s.dur() - busy
		}
	}
	covered += wall
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows, wall, covered
}

// unionWithin returns the length of the union of the intervals,
// clipped to [lo, hi].
func unionWithin(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// printTable writes the per-layer self-time table. Root spans are
// named trace.*; their self time is the wall time no layer span covers.
func (t *tracer) printTable(w io.Writer, workload string) {
	rows, wall, covered := t.table()
	fmt.Fprintf(w, "per-layer self time, workload %s: traced wall %.3f s, covered by layer spans %.1f%%\n",
		workload, wall, pct(covered, wall))
	fmt.Fprintf(w, "  %-28s %7s %10s %7s\n", "layer", "spans", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %7d %10.4f %6.1f%%\n", r.name, r.spans, r.self, pct(r.self, wall))
	}
}

// write saves every span as JSON for offline inspection.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coverage is the share of traced wall time that layer spans cover.
func (t *tracer) coverage() float64 {
	_, wall, covered := t.table()
	return pct(covered, wall)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
