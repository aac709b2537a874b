package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"pond/internal/engine"
	"pond/internal/mlops"
	"pond/internal/mlops/fleetpipeline"
	"pond/internal/predict"
	"pond/internal/stats"
)

// Runner is the one execution path of the fleet simulation, advanced
// one bounded time slice at a time under caller control; pond.FleetRun
// is this type. Every return from Advance is a safe point — all cells
// sit at the same simulated time with no event mid-flight — where the
// caller may drain the event log, read progress, snapshot, or add an
// injection before resuming. Batch runs (Run), pondserve's live runs,
// and restored snapshots all drive a Runner, so there is a single
// implementation of the cell loop and the barrier schedule.
//
// Determinism contract: a run advanced through any sequence of Advance
// slices, with any live injections added along the way, produces an
// event log byte-identical to a one-shot batch Run whose injection list
// carries the live injections appended in the order they were added —
// which is what Config returns. The banded event sequence numbers (see
// fleet.go) and the regenerate-from-seed arrival machinery are what make
// that hold.
//
// A Runner is not safe for concurrent use; callers serialize access.
type Runner struct {
	o Options

	sims        []*cellSim
	fleetScoped bool
	fp          *fleetpipeline.Manager
	barriers    []barrier
	nextBarrier int

	now      float64
	done     bool
	fleetLog strings.Builder
	// fleetMark is the byte offset into fleetLog DrainEvents has
	// consumed up to (each cell keeps its own drainMark).
	fleetMark int

	// compact, when set, folds drained log prefixes into per-stream
	// SHA-256 midstates instead of retaining them (see SetCompactDrained).
	compact        bool
	fleetDigest    hash.Hash
	fleetCompacted int

	// phase, when set, receives wall-clock spans of the run's phases
	// (see SetPhaseHook). Wall time is measured only when a hook is
	// installed, so the default path never calls time.Now.
	phase PhaseFunc

	rep *Report
}

// PhaseFunc receives one completed phase span: the phase name
// ("advance" for a parallel cell epoch, "retrain" and "plan" for the
// serial barriers, "finish" for the serial close-out), the simulated
// time the phase completed at, and its wall-clock duration in seconds.
type PhaseFunc func(phase string, atSec, seconds float64)

// SetPhaseHook installs a wall-clock span listener. The hook observes
// execution, never simulation: it runs on the Advance caller's
// goroutine at phase boundaries and cannot alter any simulated
// outcome. nil removes the hook.
func (r *Runner) SetPhaseHook(fn PhaseFunc) { r.phase = fn }

// timePhase reports one span to the hook when installed.
func (r *Runner) timePhase(name string, atSec float64, start time.Time) {
	if r.phase != nil {
		r.phase(name, atSec, time.Since(start).Seconds())
	}
}

// NewRunner builds a paused fleet run at t=0. The options pass through
// the same normalization and validation as Run.
func NewRunner(ctx context.Context, o Options) (*Runner, error) {
	o, err := normalize(o)
	if err != nil {
		return nil, err
	}
	return newRunner(ctx, o)
}

// newRunner trains the shared insensitivity model and wires the cells
// (and the fleet pipeline, under fleet scope) for already-normalized
// options.
func newRunner(ctx context.Context, o Options) (*Runner, error) {
	insens, threshold := trainInsens(o)
	r := &Runner{
		o:           o,
		fleetScoped: o.Model.Scope == ScopeFleet && o.Model.RetrainEverySec > 0,
	}
	// Each cell's RNG derives from the root seed and the cell index
	// alone, so the streams never depend on the worker count.
	sims, err := engine.Map(ctx, make([]struct{}, o.Cluster.Cells), o.Engine.Workers,
		func(i int, _ struct{}) (*cellSim, error) {
			return newCellSim(i, o, insens, threshold, stats.NewRand(stats.ShardSeed(o.Engine.Seed, i)))
		})
	if err != nil {
		return nil, err
	}
	r.sims = sims
	if r.fleetScoped {
		r.fp = fleetpipeline.NewManager(fleetpipeline.Config{
			Cells:          o.Cluster.Cells,
			CanaryFraction: o.Model.CanaryFraction,
			BakeWindowSec:  o.Model.BakeWindowSec,
			MinTrainRows:   o.Model.MinTrainRows,
			HoldoutWindow:  o.Model.HoldoutWindow,
			PromoteMargin:  o.Model.PromoteMargin,
			Seed:           o.Engine.Seed,
		}, predict.HistoryQuantileUM{})
		rcfg := r.fp.Config()
		for _, sim := range sims {
			sim.col = fleetpipeline.NewCollector(sim.cell, predict.HistoryQuantileUM{}, insens,
				sim.ratio, qosPDM, rcfg.OverPenalty, rcfg.HoldoutWindow)
			sim.pipe.SetShadowHook(sim.col.ObserveDecision)
			sim.res.ServedVersions = []int{0}
		}
	}
	r.barriers = barrierSchedule(o, r.fleetScoped)
	return r, nil
}

// Now returns the current simulated time — the safe point the run is
// paused at.
func (r *Runner) Now() float64 { return r.now }

// Done reports whether the run has reached its horizon. A done run
// accepts no further injections; Finish returns its report.
func (r *Runner) Done() bool { return r.done }

// Config returns the run's one copy of its options: normalized, every
// default filled in, with each live injection appended in the order it
// was added — the exact batch options that reproduce this run's event
// log from scratch, and the options a Snapshot carries.
func (r *Runner) Config() Options { return r.o }

// Advance runs every cell forward to simulated time t (clamped to the
// horizon), processing retrain and planning barriers crossed on the
// way: cells advance one inter-barrier epoch at a time on the parallel
// engine, then each barrier runs serially in cell order — the same
// schedule a batch run follows, so slicing the horizon differently
// changes no log byte. Reaching the horizon processes the final events
// inclusively and marks the run done.
func (r *Runner) Advance(ctx context.Context, t float64) error {
	if r.done {
		return nil
	}
	if t < r.now {
		// Clamp: time is monotonic. Advancing to the past is a no-op, not
		// a rewind of the reported clock (which would also corrupt the
		// Inject not-in-the-past validation).
		t = r.now
	}
	if t > r.o.Cluster.DurationSec {
		t = r.o.Cluster.DurationSec
	}
	for {
		next, final := t, false
		if r.nextBarrier < len(r.barriers) && r.barriers[r.nextBarrier].t <= t {
			next = r.barriers[r.nextBarrier].t
		}
		if next >= r.o.Cluster.DurationSec {
			next, final = r.o.Cluster.DurationSec, true
		}
		var t0 time.Time
		if r.phase != nil {
			t0 = time.Now()
		}
		if err := r.advanceCells(ctx, next, final); err != nil {
			return err
		}
		r.timePhase("advance", next, t0)
		r.now = next
		if final {
			r.done = true
			return nil
		}
		if r.nextBarrier < len(r.barriers) && r.barriers[r.nextBarrier].t == next {
			if err := r.processBarrier(r.barriers[r.nextBarrier]); err != nil {
				return err
			}
			r.nextBarrier++
		}
		if next == t {
			return nil
		}
	}
}

// advanceCells runs every cell to t on the engine pool. Cell state is
// strictly per-cell, so the fan-out is race-free and the per-cell logs
// depend only on (options, cell, seed).
func (r *Runner) advanceCells(ctx context.Context, t float64, final bool) error {
	_, err := engine.Map(ctx, r.sims, r.o.Engine.Workers,
		func(_ int, s *cellSim) (struct{}, error) {
			return struct{}{}, s.runUntil(t, final)
		})
	return err
}

// processBarrier runs one barrier serially in cell order: retrain
// barriers pool the cells' telemetry into the fleet pipeline and
// re-pin, planning barriers let each cell's capacity controller resize
// its pool.
func (r *Runner) processBarrier(b barrier) error {
	var t0 time.Time
	if b.retrain {
		if r.phase != nil {
			t0 = time.Now()
		}
		rows := make([][]fleetpipeline.Row, len(r.sims))
		obs := make([][]mlops.Obs, len(r.sims))
		for i, s := range r.sims {
			rows[i], obs[i] = s.col.Drain()
		}
		events, err := r.fp.Tick(b.t, rows, obs)
		if err != nil {
			return err
		}
		for _, e := range events {
			fmt.Fprintf(&r.fleetLog, "[fleet t=%.3f] %s\n", b.t, e)
		}
		for i, s := range r.sims {
			s.applyPin(r.fp.AssignmentFor(i), b.t)
		}
		r.timePhase("retrain", b.t, t0)
	}
	if b.plan {
		if r.phase != nil {
			t0 = time.Now()
		}
		for _, s := range r.sims {
			s.planTick(b.t)
		}
		r.timePhase("plan", b.t, t0)
	}
	return nil
}

// Inject schedules an injection into the paused run. It must fire
// at or after the current simulated time and passes the same
// ValidateInjection rules and per-cell arrival cap as a batch-scheduled
// one; a refused injection leaves the run untouched. The injection lands
// in every cell with the banded sequence number a batch run listing it
// at the same index would have used, and drift/surge injections
// regenerate the affected arrival streams from their stored fork seeds
// — which together keep the remaining event log byte-identical to that
// batch run's.
func (r *Runner) Inject(in Injection) error {
	if r.done {
		return fmt.Errorf("fleet: injection %s refused: run completed at t=%gs", in, r.now)
	}
	if in.atSec < r.now {
		return fmt.Errorf("fleet: injection %s fires before the current time %gs", in, r.now)
	}
	if err := ValidateInjection(in, r.o); err != nil {
		return err
	}
	// Full-slice append: the current list shares its backing array with
	// the caller's options and every cell, so it is never grown in
	// place. The cap is checked on the grown list before any cell sees
	// the injection.
	next := r.o
	n := len(next.Injections)
	next.Injections = append(next.Injections[:n:n], in)
	if err := checkArrivalCap(next); err != nil {
		return err
	}
	for _, s := range r.sims {
		s.liveInject(next, r.now)
	}
	r.o = next
	return nil
}

// Finish advances to the horizon if the run is not there yet, closes
// out every cell serially in cell order, and assembles the merged
// report. It is idempotent: later calls return the same report.
func (r *Runner) Finish(ctx context.Context) (*Report, error) {
	if r.rep != nil {
		return r.rep, nil
	}
	if err := r.Advance(ctx, r.o.Cluster.DurationSec); err != nil {
		return nil, err
	}
	var t0 time.Time
	if r.phase != nil {
		t0 = time.Now()
	}
	defer r.timePhase("finish", r.o.Cluster.DurationSec, t0)
	results := make([]CellResult, len(r.sims))
	logs := make([]string, len(r.sims))
	for i, s := range r.sims {
		var err error
		if results[i], logs[i], err = s.finish(); err != nil {
			return nil, err
		}
	}
	if r.fleetScoped {
		fmt.Fprintf(&r.fleetLog, "[fleet t=%.3f] fleetpipeline summary retrains=%d promotions=%d rollbacks=%d demotions=%d holds=%d champion-ver=%d\n",
			r.o.Cluster.DurationSec, r.fp.Counts().Retrains, r.fp.Counts().Promotions, r.fp.Counts().Rollbacks,
			r.fp.Counts().Demotions, r.fp.Counts().Holds, r.fp.ChampionVer())
	}
	fleetTail := r.fleetLog.String()
	fleetSHA := ""
	if r.fleetDigest != nil {
		// The compacted prefix lives only in the midstate; absorbing the
		// tail completes the stream hash. Finish caches its report, so the
		// midstate is consumed exactly once.
		io.WriteString(r.fleetDigest, fleetTail)
		fleetSHA = hex.EncodeToString(r.fleetDigest.Sum(nil))
	}
	rep, err := assembleReport(r.o, results, logs, fleetTail, fleetSHA, r.fleetCompacted, r.fp)
	if err != nil {
		return nil, err
	}
	r.rep = rep
	return rep, nil
}

// Progress is a point-in-time snapshot of a run's aggregate counters,
// taken at a safe point.
type Progress struct {
	// NowSec is the simulated time the run is paused at; DurationSec the
	// horizon; Done whether the horizon was reached.
	NowSec      float64 `json:"now_sec"`
	DurationSec float64 `json:"duration_sec"`
	Done        bool    `json:"done"`

	// Arrivals, Placed, Rejected, and Departed count VM lifecycle events
	// aggregated across cells so far.
	Arrivals int `json:"arrivals"`
	Placed   int `json:"placed"`
	Rejected int `json:"rejected"`
	Departed int `json:"departed"`
	// Injections counts scheduled plus live-added injections.
	Injections int `json:"injections"`

	// LiveVMs counts placed, not-yet-departed VMs across cells; PoolGB is
	// the summed active pool capacity and PoolUsedGB the summed pool draw
	// at the last accounting point.
	LiveVMs    int     `json:"live_vms"`
	PoolGB     int     `json:"pool_gb"`
	PoolUsedGB float64 `json:"pool_used_gb"`
	// Fallbacks counts pool-exhaustion DRAM fallbacks; QoSViolations
	// counts departures whose slowdown exceeded the PDM so far.
	Fallbacks     int `json:"fallbacks"`
	QoSViolations int `json:"qos_violations"`
	// Retrains and Rollbacks count model-lifecycle actions so far: cell
	// scope sums the per-cell managers, fleet scope reads the release
	// train (rollbacks are fleet-scope only).
	Retrains  int `json:"retrains"`
	Rollbacks int `json:"rollbacks"`
}

// Progress snapshots the run's aggregate lifecycle counters.
func (r *Runner) Progress() Progress {
	p := Progress{NowSec: r.now, DurationSec: r.o.Cluster.DurationSec, Done: r.done,
		Injections: len(r.o.Injections)}
	for _, s := range r.sims {
		p.Arrivals += s.res.Arrivals
		p.Placed += s.res.Placed
		p.Rejected += s.res.Rejected
		p.Departed += s.res.Departed
		p.LiveVMs += len(s.running)
		p.PoolGB += s.poolGB
		p.PoolUsedGB += s.lastPoolUsed
		p.QoSViolations += s.res.QoSViolations
		p.Fallbacks += int(s.sched.Fallbacks())
		if s.mgr != nil {
			p.Retrains += s.mgr.Quality().Retrains
		}
	}
	if r.fp != nil {
		counts := r.fp.Counts()
		p.Retrains, p.Rollbacks = counts.Retrains, counts.Rollbacks
	}
	return p
}

// LogEvent is one complete event-log line drained from a run's streams;
// Cell is -1 for the fleet pipeline's barrier log. The deterministic
// EventLog is the concatenation of the cell streams in cell order
// followed by the fleet stream, each line newline-terminated — clients
// regroup drained events by cell to reconstruct and hash it.
type LogEvent struct {
	Cell int    `json:"cell"`
	Line string `json:"line"`
}

// SetCompactDrained controls drained-prefix compaction. When on, every
// DrainEvents call folds the bytes it has handed out into per-stream
// SHA-256 midstates and releases them from memory, so a long-running
// attended run holds only its undrained tail instead of the whole-run
// log. The final report's per-stream hashes — and therefore LogSHA256 —
// are unchanged, but its EventLog carries only the retained tails (its
// Events counter still covers the full run). Off by default: batch runs
// and tests rely on Report.EventLog being the complete log.
func (r *Runner) SetCompactDrained(on bool) { r.compact = on }

// DrainEvents returns the log lines appended since the previous drain:
// cells in cell order, the fleet log last. Only complete lines are
// returned (without their trailing newline); anything mid-line stays
// for the next drain. Under SetCompactDrained the returned bytes are
// also absorbed into the per-stream digests and dropped from memory.
func (r *Runner) DrainEvents() []LogEvent {
	var out []LogEvent
	for i, s := range r.sims {
		out, s.drainMark = drainLines(out, i, s.log.String(), s.drainMark)
		if r.compact {
			s.compactLog()
		}
	}
	out, r.fleetMark = drainLines(out, -1, r.fleetLog.String(), r.fleetMark)
	if r.compact {
		r.fleetDigest, r.fleetCompacted, r.fleetMark =
			compactStream(&r.fleetLog, r.fleetDigest, r.fleetCompacted, r.fleetMark)
	}
	return out
}

// compactStream absorbs b's first mark bytes into the stream digest,
// keeps only the tail, and returns the updated digest, compacted line
// count, and tail-relative mark.
func compactStream(b *strings.Builder, d hash.Hash, lines, mark int) (hash.Hash, int, int) {
	if mark == 0 {
		return d, lines, mark
	}
	full := b.String()
	if d == nil {
		d = sha256.New()
	}
	io.WriteString(d, full[:mark])
	lines += strings.Count(full[:mark], "\n")
	tail := full[mark:]
	b.Reset()
	b.WriteString(tail)
	return d, lines, 0
}

// drainLines appends the complete lines of full[mark:] to out and
// returns the advanced mark.
func drainLines(out []LogEvent, cell int, full string, mark int) ([]LogEvent, int) {
	for mark < len(full) {
		nl := strings.IndexByte(full[mark:], '\n')
		if nl < 0 {
			break
		}
		out = append(out, LogEvent{Cell: cell, Line: full[mark : mark+nl]})
		mark += nl + 1
	}
	return out, mark
}
