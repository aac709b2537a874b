// Package serve is pondserve's control plane: it owns a registry of
// live fleet runs, drives each one through the public pond.FleetRun API
// on its own goroutine, and exposes start/inspect/inject/stream over
// HTTP. The simulation layer stays process-agnostic — everything the
// daemon does goes through StartFleet/Advance/Inject/DrainEvents, the
// same calls a batch RunFleet makes internally, so a served run's event
// log is byte-identical to the equivalent batch run.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pond"
)

// Run states. A run is born running (or holding, with a 0 hold),
// advances slice by slice, pauses at each requested hold point until
// resumed, and ends done — or failed if the simulation errors. A daemon
// shutdown parks every unfinished run at its current safe point: parked
// is terminal for this process (streams close, injections refuse), and
// the checkpointed snapshot resumes the simulation after restart.
const (
	StateRunning = "running"
	StateHolding = "holding"
	StateDone    = "done"
	StateFailed  = "failed"
	StateParked  = "parked"
)

// Event is one sequenced event-log line; Seq numbers are contiguous
// per run from 0, so a client that saw seq N resumes with ?from=N+1.
// Cell is -1 for the fleet pipeline's barrier log.
type Event struct {
	Seq  int    `json:"seq"`
	Cell int    `json:"cell"`
	Line string `json:"line"`
}

// Run is one live simulation owned by the daemon. The mutex serializes
// the driver goroutine and the HTTP handlers; every time the driver
// releases it between Advance slices is a safe point where an injection
// may land — which is exactly the determinism contract FleetRun
// provides.
type Run struct {
	ID string

	mu   sync.Mutex
	cond *sync.Cond // broadcast on new events or a state change

	// fr is the simulation, nil once the run is done or failed: a
	// terminal run serves only config, progress, and report, so it lets
	// go of the simulator (and a restored terminal run never has one).
	fr *pond.FleetRun
	// config and progress are what GET /runs/{id} serves: config is
	// refreshed from fr at each accepted injection and progress also at
	// each drain. config is normalized, so it carries the horizon.
	config   pond.FleetOpts
	progress pond.FleetProgress
	state    string
	// parkedFrom remembers the state a park interrupted (running or
	// holding), so the checkpoint can resume the run holding at the same
	// point instead of silently releasing it.
	parkedFrom string
	holds      []float64 // ascending hold times not yet reached
	events     []Event
	report     *SnapshotReport
	err        error

	// metrics is the cumulative sim-time series drained from the run
	// (empty unless the run's Engine.MetricsEverySec is set). Rows are
	// observations only — dropping them could never change the event log
	// — but they persist through checkpoints so GET /runs/{id}/metrics
	// replays the full series after a restart.
	metrics []pond.MetricsRow
	// streamed is the highest event seq + 1 any events streamer has been
	// handed; len(events) - streamed is the event-stream lag gauge.
	streamed int
	// stateSince stamps the last state transition; finishedAt is set once
	// the run goes done or failed and orders retention eviction.
	stateSince time.Time
	finishedAt time.Time
}

func newRun(id string, fr *pond.FleetRun, holds []float64) *Run {
	r := &Run{ID: id, fr: fr, config: fr.Config(), progress: fr.Progress(),
		state: StateRunning, holds: holds, stateSince: time.Now()}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// setStateLocked transitions the run state, stamping the wall-clock
// transition time and, for done/failed, the finish time retention
// eviction orders by. Callers hold r.mu and broadcast themselves.
func (r *Run) setStateLocked(st string) {
	r.state = st
	r.stateSince = time.Now()
	if (st == StateDone || st == StateFailed) && r.finishedAt.IsZero() {
		r.finishedAt = r.stateSince
	}
}

// drive advances the run to completion on the caller's goroutine,
// pausing at each hold point until Resume. sliceSec bounds how long the
// run lock is held at a stretch: smaller slices mean injections land
// sooner, at the cost of more lock round-trips.
func (r *Run) drive(ctx context.Context, sliceSec float64) {
	defer r.wakeOnCancel(ctx)()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if ctx.Err() != nil {
			r.parkLocked()
			return
		}
		for r.state == StateHolding {
			r.cond.Wait()
			if ctx.Err() != nil {
				r.parkLocked()
				return
			}
		}
		target := r.config.Cluster.DurationSec
		holding := false
		if len(r.holds) > 0 && r.holds[0] <= target {
			target, holding = r.holds[0], true
		}
		next := r.fr.Now() + sliceSec
		if next >= target {
			next = target
		}
		if err := r.fr.Advance(ctx, next); err != nil {
			if ctx.Err() != nil {
				r.parkLocked()
			} else {
				r.fail(err)
			}
			return
		}
		r.drainLocked()
		if next == target && holding {
			r.holds = r.holds[1:]
			r.setStateLocked(StateHolding)
			r.cond.Broadcast()
			continue
		}
		if r.fr.Done() {
			rep, err := r.fr.Finish(ctx)
			if err != nil {
				if ctx.Err() != nil {
					r.parkLocked()
				} else {
					r.fail(err)
				}
				return
			}
			r.drainLocked()
			r.report = snapshotReport(rep)
			r.fr = nil
			r.setStateLocked(StateDone)
			r.cond.Broadcast()
			return
		}
		// Safe point: let a pending inject or snapshot take the lock.
		r.mu.Unlock()
		r.mu.Lock()
	}
}

// drainLocked refreshes the served progress, moves newly produced log
// lines into the sequenced event buffer and sampled metrics rows into
// the series buffer, and wakes streamers of both. Callers hold r.mu.
func (r *Run) drainLocked() {
	r.progress = r.fr.Progress()
	rows := r.fr.DrainMetrics()
	evs := r.fr.DrainEvents()
	if len(rows) == 0 && len(evs) == 0 {
		return
	}
	r.metrics = append(r.metrics, rows...)
	for _, e := range evs {
		r.events = append(r.events, Event{Seq: len(r.events), Cell: e.Cell, Line: e.Line})
	}
	r.cond.Broadcast()
}

func (r *Run) fail(err error) {
	r.err = err
	r.fr = nil
	r.setStateLocked(StateFailed)
	r.cond.Broadcast()
}

// parkLocked moves an unfinished run to the parked terminal state and
// wakes every waiter, so event streams and hold waits end promptly when
// the daemon shuts down. Callers hold r.mu; done/failed runs stay put.
func (r *Run) parkLocked() {
	if r.state == StateDone || r.state == StateFailed {
		return
	}
	if r.state == StateRunning || r.state == StateHolding {
		r.parkedFrom = r.state
	}
	r.setStateLocked(StateParked)
	r.cond.Broadcast()
}

// terminalLocked reports whether the run will never produce another
// event in this process. Callers hold r.mu.
func (r *Run) terminalLocked() bool {
	return r.state == StateDone || r.state == StateFailed || r.state == StateParked
}

// Inject schedules an injection at the next safe point. A completed run
// refuses with ErrCompleted, a parked one with ErrParked; validation
// failures pass through from the fleet layer.
func (r *Run) Inject(in pond.Injection) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StateDone || r.state == StateFailed {
		return ErrCompleted
	}
	if r.state == StateParked {
		return ErrParked
	}
	if err := r.fr.Inject(in); err != nil {
		return err
	}
	r.config, r.progress = r.fr.Config(), r.fr.Progress()
	return nil
}

// Resume releases a holding run. It reports whether the run was
// actually holding.
func (r *Run) Resume() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateHolding {
		return false
	}
	r.setStateLocked(StateRunning)
	r.cond.Broadcast()
	return true
}

// ErrCompleted marks an injection refused because the run already
// reached its horizon.
var ErrCompleted = fmt.Errorf("run completed; injections are closed")

// ErrParked marks an injection refused because the daemon parked the
// run for shutdown.
var ErrParked = fmt.Errorf("run parked for shutdown; injections are closed")

// Snapshot is the inspectable state GET /runs/{id} serves — and, per
// element, the GET /runs list, so the list carries each run's live
// sim-time progress and state age without a second round trip. Report
// fields are populated once the run is done.
type Snapshot struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// StateAgeSec is the wall-clock seconds since the last state
	// transition — how long the run has been running/holding/terminal.
	StateAgeSec float64            `json:"state_age_sec"`
	Error       string             `json:"error,omitempty"`
	Progress    pond.FleetProgress `json:"progress"`
	Events      int                `json:"events"`
	// MetricsRows counts the buffered sim-time series rows served by
	// GET /runs/{id}/metrics (0 with sampling off).
	MetricsRows int             `json:"metrics_rows,omitempty"`
	HoldsAt     []float64       `json:"holds_at,omitempty"`
	Config      pond.FleetOpts  `json:"config"`
	Report      *SnapshotReport `json:"report,omitempty"`
}

// SnapshotReport is the served subset of the final report: the summary,
// the determinism witness, and the planner / rollout / model state.
type SnapshotReport struct {
	Summary          string   `json:"summary"`
	LogSHA256        string   `json:"log_sha256"`
	PlanHistory      []string `json:"plan_history,omitempty"`
	RolloutHistory   []string `json:"rollout_history,omitempty"`
	PromotionHistory []string `json:"promotion_history,omitempty"`
	ChampionVer      int      `json:"champion_ver"`
	Retrains         int      `json:"retrains"`
	Promotions       int      `json:"promotions"`
	Rollbacks        int      `json:"rollbacks"`
	DRAMSavedGB      float64  `json:"dram_saved_gb"`
	FinalPoolGB      int      `json:"final_pool_gb"`
}

// Snapshot captures the run's current state at a safe point.
func (r *Run) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		ID:          r.ID,
		State:       r.state,
		StateAgeSec: time.Since(r.stateSince).Seconds(),
		Progress:    r.progress,
		Events:      len(r.events),
		MetricsRows: len(r.metrics),
		HoldsAt:     append([]float64(nil), r.holds...),
		Config:      r.config,
	}
	if r.err != nil {
		s.Error = r.err.Error()
	}
	if r.report != nil {
		rep := *r.report
		s.Report = &rep
	}
	return s
}

// snapshotReport extracts the served subset from a full report.
func snapshotReport(rep *pond.FleetReport) *SnapshotReport {
	lifecycle, rollout, plans := rep.Histories()
	return &SnapshotReport{
		Summary:          rep.String(),
		LogSHA256:        rep.LogSHA256,
		PlanHistory:      plans,
		RolloutHistory:   rollout,
		PromotionHistory: lifecycle,
		ChampionVer:      rep.ChampionVer,
		Retrains:         rep.Retrains,
		Promotions:       rep.Promotions,
		Rollbacks:        rep.Rollbacks,
		DRAMSavedGB:      rep.DRAMSavedGB,
		FinalPoolGB:      rep.FinalPoolGB,
	}
}

// EventsFrom returns the buffered events with Seq >= from. If the run
// is still producing and no new events are buffered, it blocks until
// more arrive, the run ends, or ctx is cancelled; it returns nil only
// when no further events will ever arrive (or the wait was cancelled).
func (r *Run) EventsFrom(ctx context.Context, from int) []Event {
	return waitFor(ctx, r, func() []Event {
		if from >= len(r.events) {
			return nil
		}
		if len(r.events) > r.streamed {
			r.streamed = len(r.events)
		}
		return append([]Event(nil), r.events[from:]...)
	})
}

// waitFor blocks until take, called under the run lock, returns
// entries, the run reaches a terminal state, or ctx is cancelled; it
// returns nil in the last two cases.
func waitFor[T any](ctx context.Context, r *Run, take func() []T) []T {
	defer r.wakeOnCancel(ctx)()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if out := take(); out != nil {
			return out
		}
		if r.terminalLocked() || ctx.Err() != nil {
			return nil
		}
		r.cond.Wait()
	}
}

// wakeOnCancel wakes the run's condition waiters when ctx is cancelled,
// so a cond-wait loop can observe ctx.Err(); call the returned function
// once the loop is done.
func (r *Run) wakeOnCancel(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
}

// MetricsRow is one streamed sim-time series row with its buffer
// position, so ?from=N resumes a dropped metrics stream the same way
// event streams resume.
type MetricsRow struct {
	Seq int `json:"seq"`
	pond.MetricsRow
}

// MetricsFrom returns the buffered sim-time series rows at positions
// >= from, blocking like EventsFrom when the run is still producing.
func (r *Run) MetricsFrom(ctx context.Context, from int) []MetricsRow {
	return waitFor(ctx, r, func() []MetricsRow {
		if from >= len(r.metrics) {
			return nil
		}
		out := make([]MetricsRow, 0, len(r.metrics)-from)
		for i := from; i < len(r.metrics); i++ {
			out = append(out, MetricsRow{Seq: i, MetricsRow: r.metrics[i]})
		}
		return out
	})
}

// Metrics returns a copy of the full buffered sim-time series.
func (r *Run) Metrics() []pond.MetricsRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]pond.MetricsRow(nil), r.metrics...)
}

// gaugeView is the per-run state the /metrics collector scrapes: one
// consistent read under the run lock, cheap enough for a scrape path.
type gaugeView struct {
	id       string
	state    string
	ageSec   float64
	progress pond.FleetProgress
	events   int
	lag      int
	rows     int
}

func (r *Run) gauges() gaugeView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return gaugeView{
		id:       r.ID,
		state:    r.state,
		ageSec:   time.Since(r.stateSince).Seconds(),
		progress: r.progress,
		events:   len(r.events),
		lag:      len(r.events) - r.streamed,
		rows:     len(r.metrics),
	}
}
