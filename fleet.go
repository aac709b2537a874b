package pond

import (
	"context"

	"pond/internal/fleet"
)

// The fleet run types are declared once, in internal/fleet, where their
// field and method documentation lives; pond re-exports them, as it does
// the configuration types.
type (
	// FleetReport is the merged outcome of an online fleet run. String
	// renders the one-screen summary, and Histories the lifecycle,
	// rollout, and planning histories one line each.
	FleetReport = fleet.Report
	// FleetRun is the incremental form of RunFleet: the same simulation,
	// advanced one bounded time slice at a time under caller control.
	// Every return from Advance is a safe point where the caller may
	// drain the event log, read progress, snapshot, or Inject a scenario
	// before resuming; a run with live injections logs byte for byte what
	// RunFleet logs on its Config. pondserve drives every live run
	// through a FleetRun. It is not safe for concurrent use.
	FleetRun = fleet.Runner
	// FleetSnapshot is a paused FleetRun's serialized state: its Config
	// under "opts" plus the simulator state under "sim". RestoreFleet
	// resumes it byte-identically to the uninterrupted run, at a cost
	// independent of the simulated time already elapsed.
	FleetSnapshot = fleet.Snapshot
	// FleetProgress is a point-in-time snapshot of a run's aggregate
	// counters, taken at a safe point.
	FleetProgress = fleet.Progress
	// FleetLogEvent is one complete event-log line drained from a run's
	// streams; Cell is -1 for the fleet pipeline's barrier log. Clients
	// regroup drained events by cell to reconstruct the deterministic
	// EventLog and hash it (see EventLogSHA256).
	FleetLogEvent = fleet.LogEvent
	// MetricsRow is one sampled point of a cell's sim-time metrics
	// series; see EngineOpts.MetricsEverySec. Rows are pure observations
	// — draining or discarding them never changes the run's results.
	MetricsRow = fleet.MetricsRow
)

// RunFleet simulates an online Pond fleet: VM arrivals and departures
// flow through the live prediction/QoS control plane against the chosen
// pool topology, with failure scenarios injected mid-run. Cells fan out
// across the parallel engine; the event log and its hash depend only on
// the options and seed, never on worker count. For an incrementally
// driven run with live injections, use StartFleet.
func RunFleet(ctx context.Context, opts FleetOpts) (*FleetReport, error) {
	return fleet.Run(ctx, opts)
}

// StartFleet builds a paused fleet run at t=0. The options pass through
// the same normalization and validation as RunFleet.
func StartFleet(ctx context.Context, opts FleetOpts) (*FleetRun, error) {
	return fleet.NewRunner(ctx, opts)
}

// RestoreFleet rebuilds a paused FleetRun from a snapshot, in this or a
// fresh process. Advancing the restored run to the horizon produces
// exactly the event-log suffix the original run would have produced, and
// the final report hash matches the uninterrupted run for any worker
// count.
func RestoreFleet(ctx context.Context, snap *FleetSnapshot) (*FleetRun, error) {
	return fleet.RestoreRunner(ctx, snap)
}

// EventLogSHA256 computes the report hash of a full event log that was
// reassembled from drained events: lines are partitioned back into
// their per-cell and fleet streams, each stream is hashed, and the hash
// manifest is hashed — the same construction FleetReport.LogSHA256
// uses, so a client that drained a complete run can verify it against
// the served report without holding the log in one piece.
func EventLogSHA256(log string, cells int) string {
	return fleet.EventLogSHA256(log, cells)
}
