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
	r, err := fleet.NewRunner(ctx, opts)
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
	if err := fr.r.AddInjection(in); err != nil {
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
	return fr.r.Finish(ctx)
}

// FleetProgress is a point-in-time snapshot of a run's aggregate
// counters, taken at a safe point.
type FleetProgress = fleet.Progress

// Progress snapshots the run's aggregate lifecycle counters.
func (fr *FleetRun) Progress() FleetProgress { return fr.r.Progress() }

// FleetLogEvent is one complete event-log line drained from a run's
// streams; Cell is -1 for the fleet pipeline's barrier log. Clients
// regroup drained events by cell to reconstruct the deterministic
// EventLog and hash it (see EventLogSHA256).
type FleetLogEvent = fleet.LogEvent

// DrainEvents returns the log lines appended since the previous drain:
// cells in cell order, the fleet log last. Only complete lines are
// returned, without their trailing newline.
func (fr *FleetRun) DrainEvents() []FleetLogEvent { return fr.r.DrainEvents() }

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
