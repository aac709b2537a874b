package pond

import (
	"context"

	"pond/internal/fleet"
)

// FleetRun is the incremental form of RunFleet: the same simulation,
// advanced one bounded time slice at a time under caller control. Every
// return from Advance is a safe point — all cells sit at the same
// simulated time with no event mid-flight — where the caller may drain
// the event log, snapshot progress, or inject a scenario before
// resuming. pondserve drives every live run through a FleetRun.
//
// Determinism contract: a run advanced through any sequence of slices,
// with any injections added live along the way, produces an event log
// byte-identical to a one-shot RunFleet whose Injections list carries
// the live injections appended in the order they were added. Config
// returns exactly that batch configuration, which is what the SIGTERM
// checkpoint persists.
//
// A FleetRun is not safe for concurrent use; callers serialize access.
type FleetRun struct {
	r    *fleet.Runner
	opts FleetOpts
}

// StartFleet builds a paused fleet run at t=0. The options pass through
// the same normalization and validation as RunFleet.
func StartFleet(ctx context.Context, opts FleetOpts) (*FleetRun, error) {
	r, err := fleet.NewRunner(ctx, opts.fleetOptions())
	if err != nil {
		return nil, err
	}
	return &FleetRun{r: r, opts: opts}, nil
}

// Advance runs the simulation forward to simulated time t (clamped to
// the horizon), processing any retrain and planning barriers crossed on
// the way. Reaching the horizon marks the run done.
func (fr *FleetRun) Advance(ctx context.Context, t float64) error {
	return fr.r.Advance(ctx, t)
}

// Inject schedules a scenario into the paused run. It must fire at or
// after the current simulated time and passes the same validation as a
// batch-scheduled injection; a completed run refuses it.
func (fr *FleetRun) Inject(in Injection) error {
	if err := fr.r.AddInjection(in.in); err != nil {
		return err
	}
	n := len(fr.opts.Injections)
	fr.opts.Injections = append(fr.opts.Injections[:n:n], in)
	return nil
}

// Now returns the current simulated time — the safe point the run is
// paused at.
func (fr *FleetRun) Now() float64 { return fr.r.Now() }

// Done reports whether the run has reached its horizon.
func (fr *FleetRun) Done() bool { return fr.r.Done() }

// Config returns the grouped configuration the run started with, every
// live injection appended — the batch FleetOpts that reproduces this run's
// event log from scratch. It is the checkpoint payload pondserve writes
// on SIGTERM.
func (fr *FleetRun) Config() FleetOpts { return fr.opts }

// Finish advances to the horizon if the run is not there yet and
// assembles the merged report. It is idempotent: later calls return the
// same report.
func (fr *FleetRun) Finish(ctx context.Context) (*FleetReport, error) {
	rep, err := fr.r.Finish(ctx)
	if err != nil {
		return nil, err
	}
	return newFleetReport(rep), nil
}

// FleetProgress is a point-in-time snapshot of a run's aggregate
// counters, taken at a safe point.
type FleetProgress struct {
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
	// counts latency-band violations observed so far.
	Fallbacks     int `json:"fallbacks"`
	QoSViolations int `json:"qos_violations"`
	// Retrains and Rollbacks count model-lifecycle actions (cell scope
	// sums cells; fleet scope reports the central pipeline's counters).
	Retrains  int `json:"retrains"`
	Rollbacks int `json:"rollbacks"`
}

// Progress snapshots the run's aggregate lifecycle counters.
func (fr *FleetRun) Progress() FleetProgress {
	p := fr.r.Progress()
	return FleetProgress{
		NowSec:      p.NowSec,
		DurationSec: p.DurationSec,
		Done:        p.Done,
		Arrivals:    p.Arrivals,
		Placed:      p.Placed,
		Rejected:    p.Rejected,
		Departed:    p.Departed,
		Injections:  p.Injections,

		LiveVMs:       p.LiveVMs,
		PoolGB:        p.PoolGB,
		PoolUsedGB:    p.PoolUsedGB,
		Fallbacks:     p.Fallbacks,
		QoSViolations: p.QoSViolations,
		Retrains:      p.Retrains,
		Rollbacks:     p.Rollbacks,
	}
}

// FleetLogEvent is one complete event-log line drained from a run's
// streams; Cell is -1 for the fleet pipeline's barrier log. The
// deterministic EventLog is the cell streams concatenated in cell order
// followed by the fleet stream, each line newline-terminated — clients
// regroup drained events by cell to reconstruct and hash it.
type FleetLogEvent struct {
	Cell int    `json:"cell"`
	Line string `json:"line"`
}

// DrainEvents returns the log lines appended since the previous drain:
// cells in cell order, the fleet log last. Only complete lines are
// returned, without their trailing newline.
func (fr *FleetRun) DrainEvents() []FleetLogEvent {
	evs := fr.r.DrainEvents()
	out := make([]FleetLogEvent, len(evs))
	for i, e := range evs {
		out[i] = FleetLogEvent{Cell: e.Cell, Line: e.Line}
	}
	return out
}

// MetricsRow is one sampled point of a cell's sim-time metrics series;
// see EngineOpts.MetricsEverySec. Rows are pure observations — draining
// or discarding them never changes the run's results.
type MetricsRow = fleet.MetricsRow

// DrainMetrics returns the sim-time metrics rows sampled since the
// previous drain: cells in cell order, each cell's rows in time order.
// Must be called at a safe point (between Advance calls). Returns nil
// when EngineOpts.MetricsEverySec is unset.
func (fr *FleetRun) DrainMetrics() []MetricsRow {
	return fr.r.DrainMetrics()
}

// SetPhaseHook installs fn to be called at the end of each engine phase
// — "advance" (one parallel epoch), "retrain" and "plan" (barrier
// work), "finish" (the serial close-out) — with the simulated time the
// phase completed at and its wall-clock duration in seconds. The hook
// runs on the driving goroutine at safe points and observes only
// wall-clock timing, never simulation state; nil uninstalls it.
func (fr *FleetRun) SetPhaseHook(fn func(phase string, atSec, seconds float64)) {
	fr.r.SetPhaseHook(fn)
}
