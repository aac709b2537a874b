package fleet

import (
	"context"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strings"

	"pond/internal/capacity"
	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/emc"
	"pond/internal/host"
	"pond/internal/mlops"
	"pond/internal/mlops/fleetpipeline"
	"pond/internal/pool"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/telemetry"
)

// SnapshotVersion is the wire version of Snapshot and of the SimState
// inside it; both carry it, and RestoreRunner refuses any other value in
// either. Bump it on any incompatible change.
const SnapshotVersion = 1

// Snapshot is the serialized state of a Runner paused at a safe point
// (pond.FleetSnapshot is this type): the run's options plus its
// simulator state. Restoring it in a fresh process yields a Runner whose
// remaining event log — and final report hash — are byte-identical to
// the uninterrupted run, for any worker count, at a cost independent of
// how much simulated time had already elapsed: nothing is re-simulated.
// A snapshot shares no memory with the run it was taken from or with
// runs restored from it, so one snapshot can seed any number of runs.
type Snapshot struct {
	Version int `json:"version"`
	// Opts is the run's Config: the normalized batch options, every live
	// injection appended. It is the snapshot's only copy of the
	// configuration; a reader that only wants the configuration (or a
	// re-run from scratch) can use it and ignore Sim.
	Opts Options  `json:"opts"`
	Sim  SimState `json:"sim"`
}

// SimState is the simulator state of a paused Runner. The capture
// rule: dynamic state that affects future events or the final report is
// carried (RNG vectors, the event heap verbatim, occupancy, accumulated
// telemetry and models, accounting integrals, log digests); anything
// derivable from the run's options is rebuilt (topology, arrival streams
// from their fork seeds, the trained bootstrap insensitivity model), and
// pure caches (serving-score memos, scratch freelists) restore empty — a
// miss recomputes the identical value.
type SimState struct {
	Version     int     `json:"version"`
	NowSec      float64 `json:"now_sec"`
	NextBarrier int     `json:"next_barrier"`
	Done        bool    `json:"done"`
	Compact     bool    `json:"compact,omitempty"`

	FleetLog LogStream                   `json:"fleet_log"`
	Pipeline *fleetpipeline.ManagerState `json:"pipeline,omitempty"`
	Cells    []CellState                 `json:"cells"`
}

// LogStream is one event-log stream: the retained tail, the drain mark
// into it, and — under compaction — the SHA-256 midstate of the
// released prefix with its line count.
type LogStream struct {
	Tail      string `json:"tail,omitempty"`
	Mark      int    `json:"mark,omitempty"`
	Digest    []byte `json:"digest,omitempty"`
	Compacted int    `json:"compacted,omitempty"`
}

// EventState is one pending event of a cell's queue. The heap's backing
// array is carried verbatim (it already satisfies the heap invariant),
// so restore is a checked copy.
type EventState struct {
	At   float64      `json:"at"`
	Seq  int          `json:"seq"`
	Kind int          `json:"kind"`
	Idx  int          `json:"idx,omitempty"`
	VM   cluster.VMID `json:"vm,omitempty"`
}

// RunningVMState is one placed VM still in flight.
type RunningVMState struct {
	VM   cluster.VMRequest `json:"vm"`
	Host int               `json:"host"`
	Dec  core.Decision     `json:"dec"`
}

// CellState is one cell's dynamic state.
type CellState struct {
	Cell     int             `json:"cell"`
	ArrSeed  int64           `json:"arr_seed"`
	PlaceRNG stats.RandState `json:"place_rng"`

	Heap    []EventState     `json:"heap,omitempty"`
	Seq     int              `json:"seq"`
	Running []RunningVMState `json:"running,omitempty"`
	Log     LogStream        `json:"log"`

	EMCs  []emc.State         `json:"emcs"`
	Pool  pool.State          `json:"pool"`
	Hosts []host.State        `json:"hosts"`
	Store telemetry.State     `json:"store"`
	Sched core.SchedulerState `json:"sched"`

	Server    *predict.ServerState          `json:"server,omitempty"`
	PinnedVer int                           `json:"pinned_ver,omitempty"`
	Mlops     *mlops.State                  `json:"mlops,omitempty"`
	Collector *fleetpipeline.CollectorState `json:"collector,omitempty"`

	// Sim-time metrics state (MetricsEverySec > 0; all omitted
	// otherwise): the next sample index, the undrained ring rows in
	// sample order, the cumulative overflow count, and the pred-err
	// EWMA with its observation count. Carrying these keeps the series
	// of a restored run byte-identical to an uninterrupted one.
	SampleK        int          `json:"sample_k,omitempty"`
	MetricsRows    []MetricsRow `json:"metrics_rows,omitempty"`
	MetricsDropped int          `json:"metrics_dropped,omitempty"`
	PredErrEWMA    float64      `json:"pred_err_ewma,omitempty"`
	PredErrN       int          `json:"pred_err_n,omitempty"`

	PlacedGB      float64              `json:"placed_gb"`
	PlacedPoolGB  float64              `json:"placed_pool_gb"`
	LastT         float64              `json:"last_t"`
	UtilSec       float64              `json:"util_sec"`
	StrandedGBSec float64              `json:"stranded_gb_sec"`
	LastPoolUsed  float64              `json:"last_pool_used"`
	AttemptGB     int                  `json:"attempt_gb,omitempty"`
	PoolGB        int                  `json:"pool_gb"`
	SavedGBSec    float64              `json:"saved_gb_sec"`
	LastFallbacks int64                `json:"last_fallbacks,omitempty"`
	DemandEpoch   capacity.DemandState `json:"demand_epoch"`
	DemandTotal   capacity.DemandState `json:"demand_total"`

	Result CellResult `json:"result"`
}

// logStream captures a builder-backed stream with its drain mark and
// optional digest midstate.
func logStream(full string, mark int, d hash.Hash, compacted int) (LogStream, error) {
	s := LogStream{Tail: full, Mark: mark, Compacted: compacted}
	if d != nil {
		b, err := d.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return s, fmt.Errorf("fleet: log digest: %w", err)
		}
		s.Digest = b
	}
	return s, nil
}

// restoreLogStream loads a captured stream back into the builder and
// returns the rebuilt digest (nil when none was captured).
func restoreLogStream(b *strings.Builder, s LogStream) (hash.Hash, error) {
	if s.Mark < 0 || s.Mark > len(s.Tail) {
		return nil, fmt.Errorf("fleet: log drain mark %d outside %d-byte tail", s.Mark, len(s.Tail))
	}
	b.Reset()
	b.WriteString(s.Tail)
	if s.Digest == nil {
		return nil, nil
	}
	d := sha256.New()
	if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(s.Digest); err != nil {
		return nil, fmt.Errorf("fleet: log digest: %w", err)
	}
	return d, nil
}

// Snapshot captures the paused run's complete state. It must be called
// at a safe point (any return from Advance) and refuses a run that has
// already assembled its report: Finish consumes the log digests.
func (r *Runner) Snapshot() (*Snapshot, error) {
	if r.rep != nil {
		return nil, fmt.Errorf("fleet: snapshot refused: run already finished")
	}
	snap := &Snapshot{
		Version: SnapshotVersion,
		Opts:    r.o,
		Sim: SimState{
			Version:     SnapshotVersion,
			NowSec:      r.now,
			NextBarrier: r.nextBarrier,
			Done:        r.done,
			Compact:     r.compact,
		},
	}
	snap.Opts.Injections = slices.Clone(r.o.Injections)
	s := &snap.Sim
	var err error
	if s.FleetLog, err = logStream(r.fleetLog.String(), r.fleetMark, r.fleetDigest, r.fleetCompacted); err != nil {
		return nil, err
	}
	if r.fp != nil {
		ms, merr := r.fp.State()
		if merr != nil {
			return nil, merr
		}
		s.Pipeline = &ms
	}
	s.Cells = make([]CellState, len(r.sims))
	for i, sim := range r.sims {
		if s.Cells[i], err = sim.state(); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// clone copies the result's histories that barriers append to mid-run,
// so a snapshot and the runs restored from it never append into one
// another's arrays.
func (res CellResult) clone() CellResult {
	res.Plans = slices.Clone(res.Plans)
	res.ServedVersions = slices.Clone(res.ServedVersions)
	return res
}

// state captures one cell's dynamic state.
func (c *cellSim) state() (CellState, error) {
	cs := CellState{
		Cell:     c.cell,
		ArrSeed:  c.arrSeed,
		PlaceRNG: c.rPlace.State(),
		Seq:      c.seq,

		Sched:     c.sched.State(),
		Store:     c.store.State(),
		Pool:      c.manager.State(),
		PinnedVer: c.pinnedVer,

		SampleK:        c.sampleK,
		MetricsDropped: c.ringDropped,
		PredErrEWMA:    c.predErrEWMA,
		PredErrN:       c.predErrN,

		PlacedGB:      c.placedGB,
		PlacedPoolGB:  c.placedPoolGB,
		LastT:         c.lastT,
		UtilSec:       c.utilSec,
		StrandedGBSec: c.strandedGBSec,
		LastPoolUsed:  c.lastPoolUsed,
		AttemptGB:     c.attemptGB,
		PoolGB:        c.poolGB,
		SavedGBSec:    c.savedGBSec,
		LastFallbacks: c.lastFallbacks,
		DemandEpoch:   c.demandEpoch.State(),
		DemandTotal:   c.demandTotal.State(),

		Result: c.res.clone(),
	}
	var err error
	if cs.Log, err = logStream(c.log.String(), c.drainMark, c.logDigest, c.compacted); err != nil {
		return cs, err
	}
	if c.ringLen > 0 {
		cs.MetricsRows = c.ring[:0:0]
		for i := 0; i < c.ringLen; i++ {
			cs.MetricsRows = append(cs.MetricsRows, c.ring[(c.ringStart+i)%len(c.ring)])
		}
	}
	cs.Heap = make([]EventState, len(c.q))
	for i, ev := range c.q {
		cs.Heap[i] = EventState{At: ev.at, Seq: ev.seq, Kind: ev.kind, Idx: ev.idx, VM: ev.vm}
	}
	ids := make([]cluster.VMID, 0, len(c.running))
	for id := range c.running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rv := c.running[id]
		cs.Running = append(cs.Running, RunningVMState{VM: rv.vm, Host: rv.host, Dec: rv.dec})
	}
	cs.EMCs = make([]emc.State, len(c.devices))
	for i, d := range c.devices {
		cs.EMCs[i] = d.State()
	}
	cs.Hosts = make([]host.State, len(c.hosts))
	for i, h := range c.hosts {
		cs.Hosts[i] = h.State()
	}
	if c.srv != nil {
		st := c.srv.State()
		cs.Server = &st
	}
	if c.mgr != nil {
		ms, merr := c.mgr.State()
		if merr != nil {
			return cs, fmt.Errorf("cell %d: %w", c.cell, merr)
		}
		cs.Mlops = &ms
	}
	if c.col != nil {
		col := c.col.State()
		cs.Collector = &col
	}
	return cs, nil
}

// RestoreRunner rebuilds a paused Runner from a snapshot, in O(snapshot
// size): the static wiring is reconstructed from snap.Opts exactly as
// NewRunner does, then every cell's dynamic state is overwritten — no
// simulated time is replayed. The restored run continues byte-for-byte
// where the snapshot left off, and shares no memory with snap.
func RestoreRunner(ctx context.Context, snap *Snapshot) (*Runner, error) {
	if snap == nil {
		return nil, fmt.Errorf("fleet: nil snapshot")
	}
	s := &snap.Sim
	if snap.Version != SnapshotVersion || s.Version != SnapshotVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d (sim %d) not supported (want %d)",
			snap.Version, s.Version, SnapshotVersion)
	}
	o, err := normalize(snap.Opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot options: %w", err)
	}
	o.Injections = slices.Clone(o.Injections)
	r, err := newRunner(ctx, o)
	if err != nil {
		return nil, err
	}
	if len(s.Cells) != len(r.sims) {
		return nil, fmt.Errorf("fleet: snapshot has %d cells, options build %d", len(s.Cells), len(r.sims))
	}
	if s.NextBarrier < 0 || s.NextBarrier > len(r.barriers) {
		return nil, fmt.Errorf("fleet: snapshot barrier cursor %d outside the %d-barrier schedule", s.NextBarrier, len(r.barriers))
	}
	r.now = s.NowSec
	r.nextBarrier = s.NextBarrier
	r.done = s.Done
	r.compact = s.Compact
	if r.fleetDigest, err = restoreLogStream(&r.fleetLog, s.FleetLog); err != nil {
		return nil, err
	}
	r.fleetMark = s.FleetLog.Mark
	r.fleetCompacted = s.FleetLog.Compacted
	if s.Pipeline != nil {
		if r.fp == nil {
			return nil, fmt.Errorf("fleet: snapshot carries a release train but options are not fleet-scoped")
		}
		if err := r.fp.SetState(*s.Pipeline); err != nil {
			return nil, err
		}
	} else if r.fp != nil {
		return nil, fmt.Errorf("fleet: fleet-scoped options but snapshot carries no release train")
	}
	for i := range r.sims {
		if err := r.sims[i].restoreState(s.Cells[i], s.NowSec, r.fp); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restoreState overwrites the freshly built cell with the snapshot's
// dynamic state. now is the snapshot's safe point and fp the restored
// release train under fleet scope.
func (c *cellSim) restoreState(cs CellState, now float64, fp *fleetpipeline.Manager) error {
	if cs.Cell != c.cell {
		return fmt.Errorf("cell %d: snapshot state is for cell %d", c.cell, cs.Cell)
	}
	if cs.ArrSeed != c.arrSeed {
		// The arrival fork seed is derived, not installed; a mismatch
		// means the rebuilt RNG tree diverged from the snapshotting
		// process and nothing downstream can be trusted.
		return fmt.Errorf("cell %d: arrival seed mismatch: snapshot %d, rebuilt %d", c.cell, cs.ArrSeed, c.arrSeed)
	}
	if err := c.rPlace.SetState(cs.PlaceRNG); err != nil {
		return fmt.Errorf("cell %d: placement rng: %w", c.cell, err)
	}

	if err := c.restoreHeap(cs.Heap, now); err != nil {
		return fmt.Errorf("cell %d: %w", c.cell, err)
	}
	c.seq = cs.Seq
	c.running = make(map[cluster.VMID]*runningVM, len(cs.Running))
	for _, rs := range cs.Running {
		if rs.Host < 0 || rs.Host >= len(c.hosts) {
			return fmt.Errorf("cell %d: snapshot places running vm %d on host %d of %d", c.cell, rs.VM.ID, rs.Host, len(c.hosts))
		}
		c.running[rs.VM.ID] = &runningVM{vm: rs.VM, host: rs.Host, dec: rs.Dec}
	}
	var err error
	if c.logDigest, err = restoreLogStream(&c.log, cs.Log); err != nil {
		return fmt.Errorf("cell %d: %w", c.cell, err)
	}
	c.compacted = cs.Log.Compacted
	c.drainMark = cs.Log.Mark

	if len(cs.EMCs) != len(c.devices) {
		return fmt.Errorf("cell %d: snapshot has %d EMCs, options build %d", c.cell, len(cs.EMCs), len(c.devices))
	}
	for i, d := range c.devices {
		if err := d.SetState(cs.EMCs[i]); err != nil {
			return fmt.Errorf("cell %d: emc %d: %w", c.cell, i, err)
		}
	}
	if err := c.manager.SetState(cs.Pool); err != nil {
		return fmt.Errorf("cell %d: %w", c.cell, err)
	}
	if len(cs.Hosts) != len(c.hosts) {
		return fmt.Errorf("cell %d: snapshot has %d hosts, options build %d", c.cell, len(cs.Hosts), len(c.hosts))
	}
	for i, h := range c.hosts {
		if err := h.SetState(cs.Hosts[i]); err != nil {
			return fmt.Errorf("cell %d: %w", c.cell, err)
		}
	}
	if err := c.store.SetState(cs.Store); err != nil {
		return fmt.Errorf("cell %d: telemetry: %w", c.cell, err)
	}
	if err := c.sched.SetState(cs.Sched); err != nil {
		return fmt.Errorf("cell %d: %w", c.cell, err)
	}

	// Model planes. The mlops restore re-pushes the serving insensitivity
	// threshold into the pipeline; the server is re-pinned to the restored
	// champions under its snapshotted generation, then its counters and
	// prediction caches are restored (the caches are semantic state: a
	// generation serves the first score it gave a customer/workload pair).
	if (c.mgr != nil) != (cs.Mlops != nil) {
		return fmt.Errorf("cell %d: snapshot and options disagree on the cell-scoped model lifecycle", c.cell)
	}
	if c.mgr != nil {
		if err := c.mgr.SetState(*cs.Mlops); err != nil {
			return fmt.Errorf("cell %d: %w", c.cell, err)
		}
	}
	if (c.col != nil) != (cs.Collector != nil) {
		return fmt.Errorf("cell %d: snapshot and options disagree on the fleet-pipeline collector", c.cell)
	}
	if c.col != nil {
		a, aerr := fp.AssignmentForServeVer(cs.Collector.ServeVer)
		if aerr != nil {
			return fmt.Errorf("cell %d: %w", c.cell, aerr)
		}
		c.col.Install(a)
		if err := c.col.SetState(*cs.Collector); err != nil {
			return err
		}
		if c.srv != nil && cs.Server != nil {
			c.srv.Pin(cs.Server.Generation, c.insens, a.Serve)
		}
	}
	if (c.srv != nil) != (cs.Server != nil) {
		return fmt.Errorf("cell %d: snapshot and options disagree on the inference server", c.cell)
	}
	if c.srv != nil {
		if c.mgr != nil {
			ins, _, um := c.mgr.ServingModels()
			if ins == nil {
				ins = c.insens
			}
			c.srv.Pin(cs.Server.Generation, ins, um)
		}
		c.srv.SetState(*cs.Server)
	}
	c.pinnedVer = cs.PinnedVer

	if len(cs.MetricsRows) > 0 && c.metricsEvery <= 0 {
		return fmt.Errorf("cell %d: snapshot carries metrics rows but options disable sampling", c.cell)
	}
	if c.metricsEvery > 0 {
		if len(cs.MetricsRows) > len(c.ring) {
			return fmt.Errorf("cell %d: snapshot carries %d metrics rows, ring holds %d", c.cell, len(cs.MetricsRows), len(c.ring))
		}
		c.ringStart, c.ringLen = 0, len(cs.MetricsRows)
		copy(c.ring, cs.MetricsRows)
		if cs.SampleK > 0 {
			c.sampleK = cs.SampleK
		}
		c.ringDropped = cs.MetricsDropped
		c.predErrEWMA = cs.PredErrEWMA
		c.predErrN = cs.PredErrN
	}
	c.placedGB = cs.PlacedGB
	c.placedPoolGB = cs.PlacedPoolGB
	c.lastT = cs.LastT
	c.utilSec = cs.UtilSec
	c.strandedGBSec = cs.StrandedGBSec
	c.lastPoolUsed = cs.LastPoolUsed
	c.attemptGB = cs.AttemptGB
	c.poolGB = cs.PoolGB
	c.savedGBSec = cs.SavedGBSec
	c.lastFallbacks = cs.LastFallbacks
	c.demandEpoch.SetState(cs.DemandEpoch)
	c.demandTotal.SetState(cs.DemandTotal)
	c.res = cs.Result.clone()
	return nil
}

// restoreHeap installs a snapshotted event heap after checking every
// entry against the rebuilt cell, so a damaged or hand-edited snapshot
// fails the restore instead of panicking in a later Advance: each event
// must be of a known kind, sit at a finite time at or after the safe
// point now (every pending event does), and index an existing arrival
// or injection; retrain ticks need a cell-scoped manager that retrains
// (not a monitor-only one); and the backing array must keep the heap
// order popMin relies on.
func (c *cellSim) restoreHeap(heap []EventState, now float64) error {
	c.q = c.q[:0]
	for i, es := range heap {
		if !finite(es.At) || es.At < now {
			return fmt.Errorf("snapshot event %d at t=%g is not a finite time at or after the safe point t=%g", i, es.At, now)
		}
		switch es.Kind {
		case evArrive:
			if es.Idx < 0 || es.Idx >= len(c.arrivals) {
				return fmt.Errorf("snapshot event %d names arrival %d of %d", i, es.Idx, len(c.arrivals))
			}
		case evInject:
			if es.Idx < 0 || es.Idx >= len(c.o.Injections) {
				return fmt.Errorf("snapshot event %d names injection %d of %d", i, es.Idx, len(c.o.Injections))
			}
		case evRetrain:
			if c.mgr == nil {
				return fmt.Errorf("snapshot event %d is a retrain tick, but the cell runs no cell-scoped model lifecycle", i)
			}
			if c.o.Model.RetrainEverySec == 0 {
				return fmt.Errorf("snapshot event %d is a retrain tick, but the cell's model lifecycle is monitor-only", i)
			}
		case evDepart:
		default:
			return fmt.Errorf("snapshot event %d has unknown kind %d", i, es.Kind)
		}
		c.q = append(c.q, event{at: es.At, seq: es.Seq, kind: es.Kind, idx: es.Idx, vm: es.VM})
		if i > 0 && c.q.less(i, (i-1)/2) {
			return fmt.Errorf("snapshot event %d breaks the heap order", i)
		}
	}
	return nil
}
