package pond

import (
	"context"
	"encoding/json"
	"fmt"

	"pond/internal/fleet"
)

// FleetSnapshotVersion is the wire version of FleetSnapshot. A restore
// refuses any other version rather than guessing at field meanings.
const FleetSnapshotVersion = 1

// FleetSnapshot is the serialized state of a paused FleetRun: the
// public configuration (with every live injection appended)
// plus the opaque simulator state — RNG streams, event heaps, running
// VMs, telemetry, pool occupancy, model servers, rollout state, and the
// event-log hash midstates. Restoring one resumes the run exactly where
// it paused: the remaining event log and the final report hash are
// byte-identical to a run that was never interrupted, and the restore
// cost does not depend on how much simulated time had elapsed.
//
// Sim is versioned independently inside the payload; both Version here
// and the payload version must match before a restore proceeds.
type FleetSnapshot struct {
	Version int `json:"version"`
	// Opts is the batch configuration that reproduces this run from
	// scratch — the same value Config returns. It is the snapshot's only
	// copy of the configuration: RestoreFleet rebuilds the run from it
	// and Sim. A reader that only wants the configuration (or a tool
	// downgrading to a re-run) can use it and ignore Sim.
	Opts FleetOpts `json:"opts"`
	// Sim is the internal fleet.Snapshot, kept opaque so the internal
	// layout can evolve under its own version without breaking this
	// file format.
	Sim json.RawMessage `json:"sim"`
}

// Snapshot captures the paused run's full state. It can be taken at any
// safe point — any return from Advance before Finish — and refuses a
// finished run (checkpoint the report instead).
func (fr *FleetRun) Snapshot() (*FleetSnapshot, error) {
	s, err := fr.r.Snapshot()
	if err != nil {
		return nil, err
	}
	sim, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("pond: encoding snapshot: %w", err)
	}
	return &FleetSnapshot{
		Version: FleetSnapshotVersion,
		Opts:    fr.opts,
		Sim:     sim,
	}, nil
}

// RestoreFleet rebuilds a paused FleetRun from a snapshot in a fresh
// process. The restored run continues from the snapshot's safe point:
// advancing it to the horizon produces exactly the event-log suffix the
// original run would have produced, and the final report hash matches
// the uninterrupted run for any worker count.
func RestoreFleet(ctx context.Context, snap *FleetSnapshot) (*FleetRun, error) {
	if snap == nil {
		return nil, fmt.Errorf("pond: nil snapshot")
	}
	if snap.Version != FleetSnapshotVersion {
		return nil, fmt.Errorf("pond: snapshot version %d, this build reads version %d",
			snap.Version, FleetSnapshotVersion)
	}
	var s fleet.Snapshot
	if err := json.Unmarshal(snap.Sim, &s); err != nil {
		return nil, fmt.Errorf("pond: decoding snapshot: %w", err)
	}
	r, err := fleet.RestoreRunner(ctx, snap.Opts, &s)
	if err != nil {
		return nil, err
	}
	return &FleetRun{r: r, opts: snap.Opts}, nil
}

// SetCompactDrained controls whether the run releases drained event-log
// prefixes: once a prefix has been handed out by DrainEvents, its bytes
// are folded into an incremental hash and freed instead of being held
// until Finish. The final report then carries only the undrained tail
// in EventLog, while LogSHA256 and the event count still cover the full
// run. Long-lived daemons that stream the log enable this; batch
// callers that want the complete EventLog leave it off (the default).
func (fr *FleetRun) SetCompactDrained(on bool) { fr.r.SetCompactDrained(on) }

// EventLogSHA256 computes the report hash of a full event log that was
// reassembled from drained events: lines are partitioned back into
// their per-cell and fleet streams, each stream is hashed, and the hash
// manifest is hashed — the same construction FleetReport.LogSHA256
// uses, so a client that drained a complete run can verify it against
// the served report without holding the log in one piece.
func EventLogSHA256(log string, cells int) string {
	return fleet.EventLogSHA256(log, cells)
}
