// Package fleet is the online, event-driven counterpart to the offline
// trace replays of internal/sim. Where the figure pipelines compute a
// placement once and measure it, fleet drives a live deployment the way
// §4 and §7 describe the production system: VMs arrive and depart
// continuously, every admission flows through the prediction/QoS control
// plane (internal/predict, internal/core), the Pool Manager onlines and
// drains slices in simulated time, and operational scenarios — EMC
// failures with topology-bounded blast radius, host drains, load surges —
// are injected mid-run.
//
// A run is a set of independent cells (pool groups), each simulated by a
// sequential discrete-event loop and fanned out across the parallel
// engine of internal/engine. Each cell's RNG derives from the root seed
// and the cell index alone, and cell results merge in cell order, so the
// full event log — and therefore its hash — is byte-identical for any
// worker count.
//
// Model retraining runs at one of two scopes. Cell scope (the default)
// gives every cell its own champion/challenger lifecycle
// (internal/mlops). Fleet scope is the §5 central pipeline: cells
// synchronize at every retrain boundary, their telemetry pools into one
// corpus, and a single fleet release train deploys through staged canary
// rollout (internal/mlops/fleetpipeline) — cells stay embarrassingly
// parallel between barriers, and the barrier itself is processed
// serially in cell order, so determinism is preserved.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"
	"strings"

	"pond/internal/capacity"
	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/cxl"
	"pond/internal/emc"
	"pond/internal/host"
	"pond/internal/mlops"
	"pond/internal/mlops/fleetpipeline"
	"pond/internal/pmu"
	"pond/internal/pool"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/telemetry"
	"pond/internal/topo"
)

// CellResult is one cell's outcome.
type CellResult struct {
	Cell int

	Arrivals int
	Placed   int
	Rejected int
	Departed int
	// BlastVMs counts VMs lost to EMC failures.
	BlastVMs int
	// Migrated counts VMs moved off draining hosts.
	Migrated int

	// QoSViolations counts departed VMs whose realized slowdown exceeded
	// the PDM; Mitigations counts those the QoS monitor reconfigured.
	QoSViolations int
	Mitigations   int

	// AvgCoreUtil is the time-weighted scheduled-core fraction.
	AvgCoreUtil float64
	// AvgStrandedGB is the time-weighted stranded local memory (§2).
	AvgStrandedGB float64
	// PeakPoolUsedGB is the maximum pool memory in use at any event.
	PeakPoolUsedGB float64
	// PoolShare is the GB-weighted share of placed memory on the pool.
	PoolShare float64

	// Capacity loop (the pool stays at the static size unless the
	// elastic controller or a resize injection ran).
	//
	// FinalPoolGB is the cell's active pool capacity at run end;
	// DRAMSavedGB the time-averaged capacity the cell ran below the
	// static pool (negative if it grew past it); Fallbacks the
	// pool-exhaustion downgrades to all-local.
	FinalPoolGB int
	DRAMSavedGB float64
	Fallbacks   int
	// Plans is the cell's planning-barrier history.
	Plans []capacity.PlanEvent
	// Demand is the whole-run time-weighted pool-demand distribution —
	// the offline planner's (and cmd/pondplan's) telemetry input.
	Demand *capacity.Demand
	// UntouchedP50/P90 summarize the cell's observed untouched-memory
	// outcome distribution (zero without predictions).
	UntouchedP50, UntouchedP90 float64

	// Model lifecycle (zero unless retraining ran).
	Retrains, Promotions, Demotions int
	// UMChampVer / InsensChampVer are the serving model versions at the
	// end of the run. Under fleet scope UMChampVer is the release version
	// pinned on this cell's request path.
	UMChampVer, InsensChampVer int
	// ServedVersions lists every release version this cell ever served,
	// in pin order (fleet scope; starts at the bootstrap version 0). A
	// rolled-back release appears only on the cells that served its
	// canary.
	ServedVersions []int
	// PredErrMean is the serving untouched-memory model's mean
	// asymmetric prediction loss over all completed VMs; PredErrFinal
	// the same over the final rolling window.
	PredErrMean, PredErrFinal float64
	// InsensErrMean is the serving insensitivity model's mean score
	// error against ground-truth labels.
	InsensErrMean float64
	// Lifecycle is the cell's retrain/promote/demote history (cell
	// scope).
	Lifecycle []mlops.Event
	// ModelDump holds the versioned model snapshots (Model.Capture under
	// cell scope).
	ModelDump json.RawMessage

	// Series is the cell's sim-time metrics series (MetricsEverySec > 0)
	// — the full series for a one-shot run, or only the undrained tail
	// when the Runner drained rows along the way. MetricsDropped counts
	// rows lost to ring overflow (0 for serially drained runs).
	Series         []MetricsRow
	MetricsDropped int

	// LogSHA is the hex SHA-256 of the cell's complete event-log stream,
	// compacted prefix included; the stream's lines live in the report's
	// EventLog. Compacted counts the lines that were folded into the
	// digest and released (0 without compaction).
	LogSHA    string
	Compacted int
}

// Report is the merged outcome of a fleet run; pond.FleetReport is
// this type. It holds the event log once, in EventLog: the per-cell
// results carry each stream's hash, not a second copy of its lines.
type Report struct {
	// Options echoes the normalized options that ran: the topology
	// (Options.Cluster.Topology), the retraining scope
	// (Options.Model.Scope), and every injection.
	Options Options
	// TopologyDesc is the topology's one-line description with its
	// blast-radius summary.
	TopologyDesc string
	// Cells holds each cell's outcome in cell order.
	Cells []CellResult

	// Arrivals, Placed, Rejected, and Departed count VM lifecycle
	// events aggregated across cells: VMs that arrived, were admitted,
	// were turned away with no fitting host, and completed.
	Arrivals, Placed, Rejected, Departed int
	// BlastVMs is the number of VMs lost to injected EMC failures;
	// Migrated counts VMs moved off draining hosts.
	BlastVMs, Migrated int
	// QoSViolations counts departed VMs whose realized slowdown exceeded
	// the PDM; Mitigations those the QoS monitor reconfigured.
	QoSViolations, Mitigations int
	// AvgCoreUtil is the time-weighted scheduled-core fraction (cell
	// mean).
	AvgCoreUtil float64
	// AvgStrandedGB is the time-weighted stranded memory (§2, cell
	// mean).
	AvgStrandedGB float64
	// PeakPoolUsedGB is the highest pool usage any cell reached — the
	// demand signal capacity planning sizes against.
	PeakPoolUsedGB float64
	// PoolShare is the GB-weighted share of placed memory on pool DRAM
	// (cell mean).
	PoolShare float64

	// Capacity loop (meaningful when Capacity.Elastic or a resize
	// injection ran). FinalPoolGB sums the cells' active pool capacity at
	// run end; DRAMSavedGB is the fleet's time-averaged capacity below
	// static provisioning — the Pond §7 savings metric, negative if the
	// pool grew past the static size; Fallbacks counts pool-exhaustion
	// downgrades to all-local placements.
	FinalPoolGB int
	DRAMSavedGB float64
	Fallbacks   int
	// PlanHistory is every planning-barrier decision in cell order;
	// Histories renders it one line each. Byte-identical for any worker
	// count.
	PlanHistory []capacity.PlanEvent

	// Model lifecycle (populated when predictions run; the counters stay
	// zero unless retraining was enabled). Under fleet scope they
	// describe the release train: retrains, fleet-wide promotions,
	// demotions — and Rollbacks counts challengers the canary bake
	// stopped from ever reaching a non-canary cell.
	Retrains, Promotions, Demotions int
	Rollbacks                       int
	// PredErrMean is the serving untouched-memory model's mean
	// asymmetric prediction loss over all completed VMs; PredErrFinal
	// the same over the final rolling window — the end-of-run prediction
	// error. InsensErrMean mirrors it for the insensitivity score. All
	// three are cell means.
	PredErrMean, PredErrFinal float64
	InsensErrMean             float64
	// Lifecycle is every cell's retrain/promote/demote history in cell
	// order (cell scope).
	Lifecycle []mlops.Event
	// Rollout is the fleet release train's stage-transition history
	// (fleet scope): retrain, canary-start, hold, promote, rollback,
	// demote — deterministic and byte-identical for any worker count.
	Rollout []fleetpipeline.Event
	// ChampionVer is the fleet champion release version at run end
	// (fleet scope).
	ChampionVer int
	// ModelDumps is the versioned model dump when Model.Capture was set:
	// one JSON document per cell under cell scope, a single release-train
	// document under fleet scope.
	ModelDumps []json.RawMessage

	// EventLog is the full deterministic event log: the concatenation of
	// all cell logs in cell order, followed by the fleet pipeline's
	// barrier log under fleet scope. Under drained-prefix compaction it
	// carries only the retained tails; Events always counts the full
	// run's log lines.
	EventLog string
	Events   int
	// LogSHA256 is the determinism witness, identical for every worker
	// count: the SHA-256 of the stream manifest — one hex SHA-256 line
	// per cell stream in cell order, then one for the fleet stream
	// (always present, even when empty). Hashing per stream is what lets
	// drained prefixes be folded into running digests and released
	// without changing the final hash; recompute it from a full log with
	// EventLogSHA256.
	LogSHA256 string
}

// Histories renders the report's decision histories one line each,
// every line prefixed with where and when the decision happened: the
// cell lifecycle and the planning barriers as "[c<cell> t=<sec>] ", the
// release train as "[fleet t=<sec>] ". These are the lines pondfleet
// prints and pondserve serves.
func (r *Report) Histories() (lifecycle, rollout, plans []string) {
	for _, e := range r.Lifecycle {
		lifecycle = append(lifecycle, fmt.Sprintf("[c%d t=%.3f] %s", e.Cell, e.AtSec, e))
	}
	for _, e := range r.Rollout {
		rollout = append(rollout, fmt.Sprintf("[fleet t=%.3f] %s", e.AtSec, e))
	}
	for _, e := range r.PlanHistory {
		plans = append(plans, fmt.Sprintf("[c%d t=%.3f] %s", e.Cell, e.AtSec, e))
	}
	return lifecycle, rollout, plans
}

// String renders a one-screen summary.
func (r *Report) String() string {
	var b strings.Builder
	cl, m, cp := r.Options.Cluster, r.Options.Model, r.Options.Capacity
	fmt.Fprintf(&b, "fleet: topology=%s cells=%d hosts=%d emcs=%d pool=%dGB arrival=%s duration=%gs seed=%d\n",
		cl.Topology, cl.Cells, cl.Hosts, cl.EMCs, cl.PoolGB, r.Options.Arrivals, cl.DurationSec, r.Options.Engine.Seed)
	fmt.Fprintf(&b, "  %s\n", r.TopologyDesc)
	fmt.Fprintf(&b, "  arrivals=%d placed=%d rejected=%d departed=%d blast-vms=%d migrated=%d\n",
		r.Arrivals, r.Placed, r.Rejected, r.Departed, r.BlastVMs, r.Migrated)
	fmt.Fprintf(&b, "  core-util=%.1f%% stranded=%.1fGB peak-pool-used=%.0fGB pool-share=%.1f%% qos-violations=%d mitigated=%d\n",
		100*r.AvgCoreUtil, r.AvgStrandedGB, r.PeakPoolUsedGB, 100*r.PoolShare, r.QoSViolations, r.Mitigations)
	if cp.Elastic {
		fmt.Fprintf(&b, "  elastic: plan-every=%gs target-qos=%.2f%% plans=%d final-pool=%dGB dram-saved=%.1fGB fallbacks=%d\n",
			cp.PlanEverySec, 100*cp.TargetQoS, len(r.PlanHistory),
			r.FinalPoolGB, r.DRAMSavedGB, r.Fallbacks)
	}
	if m.RetrainEverySec > 0 && m.Scope == ScopeFleet {
		fmt.Fprintf(&b, "  fleet-mlops: scope=fleet canary=%.2f bake=%gs retrains=%d promotions=%d rollbacks=%d demotions=%d champion-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f\n",
			m.CanaryFraction, m.BakeWindowSec,
			r.Retrains, r.Promotions, r.Rollbacks, r.Demotions, r.ChampionVer,
			r.PredErrMean, r.PredErrFinal, r.InsensErrMean)
	} else if m.RetrainEverySec > 0 {
		fmt.Fprintf(&b, "  mlops: retrains=%d promotions=%d demotions=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f\n",
			r.Retrains, r.Promotions, r.Demotions, r.PredErrMean, r.PredErrFinal, r.InsensErrMean)
	}
	fmt.Fprintf(&b, "  event-log: %d events, sha256=%s", r.Events, r.LogSHA256)
	return b.String()
}

// Run executes the fleet simulation to its horizon: a Runner built at
// t=0 and finished in one call, so batch runs take the same path as
// sliced, served, and restored ones. Cells fan out across the engine
// worker pool; the report — including the full event log and its hash —
// is byte-identical for every worker count.
func Run(ctx context.Context, o Options) (*Report, error) {
	r, err := NewRunner(ctx, o)
	if err != nil {
		return nil, err
	}
	return r.Finish(ctx)
}

// trainInsens trains the shared insensitivity model once per run;
// scoring is read-only, so every cell shares it. The threshold targets
// the paper's ~30% label rate. Without predictions there is no model.
func trainInsens(o Options) (predict.Insensitivity, float64) {
	if o.Model.Disabled {
		return nil, 0
	}
	return predict.TrainBootstrapInsensitivity(cxl.PondLatencyRatio(o.Cluster.Hosts*2), qosPDM, o.Engine.Seed)
}

// assembleReport merges the per-cell results — and the fleet pipeline's
// log and release-train counters, when one ran — into the final report,
// concatenates the (retained) cell logs in cell order, and hashes the
// stream manifest. fleetSHA is the fleet stream's precomputed hex hash
// when the Runner compacted it ("" means hash fleetLog here), and
// fleetCompacted its folded-away line count.
func assembleReport(o Options, results []CellResult, cellLogs []string, fleetLog, fleetSHA string, fleetCompacted int, fp *fleetpipeline.Manager) (*Report, error) {
	rep := &Report{Options: o, Cells: results}
	tp, _ := topo.Build(o.Cluster.Topology, o.Cluster.Hosts, o.Cluster.EMCs, o.Cluster.PodDegree)
	rep.TopologyDesc = tp.Describe()
	var log strings.Builder
	logLen := len(fleetLog)
	for _, l := range cellLogs {
		logLen += len(l)
	}
	log.Grow(logLen)
	for i, c := range results {
		rep.Arrivals += c.Arrivals
		rep.Placed += c.Placed
		rep.Rejected += c.Rejected
		rep.Departed += c.Departed
		rep.BlastVMs += c.BlastVMs
		rep.Migrated += c.Migrated
		rep.QoSViolations += c.QoSViolations
		rep.Mitigations += c.Mitigations
		rep.Retrains += c.Retrains
		rep.Promotions += c.Promotions
		rep.Demotions += c.Demotions
		rep.AvgCoreUtil += c.AvgCoreUtil / float64(len(results))
		rep.AvgStrandedGB += c.AvgStrandedGB / float64(len(results))
		rep.PoolShare += c.PoolShare / float64(len(results))
		rep.PredErrMean += c.PredErrMean / float64(len(results))
		rep.PredErrFinal += c.PredErrFinal / float64(len(results))
		rep.InsensErrMean += c.InsensErrMean / float64(len(results))
		if c.PeakPoolUsedGB > rep.PeakPoolUsedGB {
			rep.PeakPoolUsedGB = c.PeakPoolUsedGB
		}
		rep.FinalPoolGB += c.FinalPoolGB
		rep.DRAMSavedGB += c.DRAMSavedGB
		rep.Fallbacks += c.Fallbacks
		rep.PlanHistory = append(rep.PlanHistory, c.Plans...)
		rep.Lifecycle = append(rep.Lifecycle, c.Lifecycle...)
		if c.ModelDump != nil {
			rep.ModelDumps = append(rep.ModelDumps, c.ModelDump)
		}
		log.WriteString(cellLogs[i])
	}
	if fp != nil {
		counts := fp.Counts()
		rep.Retrains = counts.Retrains
		rep.Promotions = counts.Promotions
		rep.Demotions = counts.Demotions
		rep.Rollbacks = counts.Rollbacks
		rep.Rollout = fp.Events()
		rep.ChampionVer = fp.ChampionVer()
		if o.Model.Capture {
			dump, derr := fp.SnapshotJSON()
			if derr != nil {
				return nil, fmt.Errorf("fleet: release-train snapshot: %w", derr)
			}
			rep.ModelDumps = append(rep.ModelDumps, dump)
		}
		log.WriteString(fleetLog)
	}
	rep.EventLog = log.String()
	rep.Events = strings.Count(rep.EventLog, "\n") + fleetCompacted
	for _, c := range results {
		rep.Events += c.Compacted
	}
	// The manifest hashes each stream separately: one line per cell in
	// cell order, then the fleet stream.
	var manifest strings.Builder
	for _, c := range results {
		manifest.WriteString(c.LogSHA)
		manifest.WriteByte('\n')
	}
	if fleetSHA == "" {
		fleetSHA = streamSHA256(fleetLog)
	}
	manifest.WriteString(fleetSHA)
	manifest.WriteByte('\n')
	rep.LogSHA256 = streamSHA256(manifest.String())
	return rep, nil
}

// streamSHA256 hashes a string without the []byte copy.
func streamSHA256(s string) string {
	h := sha256.New()
	io.WriteString(h, s)
	return hex.EncodeToString(h.Sum(nil))
}

// EventLogSHA256 recomputes a report's LogSHA256 from a complete event
// log and the run's cell count: lines are partitioned back into their
// per-cell streams (by the "[c<N> " prefix; everything else — the
// "[fleet " lines — is the fleet stream), each stream is hashed, and
// the manifest of stream hashes (cells in cell order, fleet last,
// always present) is hashed. External verifiers — golden tests, the
// serve client's drained-stream reassembly, CI smoke checks — use it to
// prove a reassembled log matches the report hash byte for byte.
func EventLogSHA256(log string, cells int) string {
	cellH := make([]hash.Hash, cells)
	for i := range cellH {
		cellH[i] = sha256.New()
	}
	fleetH := sha256.New()
	for len(log) > 0 {
		line := log
		if nl := strings.IndexByte(log, '\n'); nl >= 0 {
			line, log = log[:nl+1], log[nl+1:]
		} else {
			log = ""
		}
		h := fleetH
		if strings.HasPrefix(line, "[c") {
			if cell, ok := parseCellPrefix(line[2:]); ok && cell < cells {
				h = cellH[cell]
			}
		}
		io.WriteString(h, line)
	}
	var manifest strings.Builder
	for _, h := range cellH {
		manifest.WriteString(hex.EncodeToString(h.Sum(nil)))
		manifest.WriteByte('\n')
	}
	manifest.WriteString(hex.EncodeToString(fleetH.Sum(nil)))
	manifest.WriteByte('\n')
	return streamSHA256(manifest.String())
}

// parseCellPrefix reads the decimal cell index terminating at the space
// of a "[c<N> t=..." line prefix (already stripped of "[c").
func parseCellPrefix(s string) (int, bool) {
	n, i := 0, 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + int(s[i]-'0')
	}
	if i == 0 || i >= len(s) || s[i] != ' ' {
		return 0, false
	}
	return n, true
}

// barrier is one synchronization point of the barriered run: every cell
// advances to t, then the barrier work runs serially in cell order.
type barrier struct {
	t             float64
	retrain, plan bool
}

// barrierSchedule merges the retrain ticks (fleet model scope) and the
// planning ticks (elastic pool) into one ascending schedule. Times are
// computed as exact multiples of their cadence, so coincident barriers
// merge instead of firing twice.
func barrierSchedule(o Options, fleetScoped bool) []barrier {
	var bs []barrier
	add := func(t float64, retrain, plan bool) {
		for i := range bs {
			if bs[i].t == t {
				bs[i].retrain = bs[i].retrain || retrain
				bs[i].plan = bs[i].plan || plan
				return
			}
		}
		bs = append(bs, barrier{t: t, retrain: retrain, plan: plan})
	}
	if fleetScoped {
		for k := 1; ; k++ {
			t := float64(k) * o.Model.RetrainEverySec
			if t >= o.Cluster.DurationSec {
				break
			}
			add(t, true, false)
		}
	}
	if o.Capacity.Elastic {
		for k := 1; ; k++ {
			t := float64(k) * o.Capacity.PlanEverySec
			if t >= o.Cluster.DurationSec {
				break
			}
			add(t, false, true)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].t < bs[j].t })
	return bs
}

// Event kinds of the cell loop.
const (
	evArrive = iota
	evDepart
	evInject
	evRetrain
)

// event is one entry of the cell's time-ordered queue.
type event struct {
	at   float64
	seq  int // banded tie-break (see the seq* bands below)
	kind int
	idx  int          // arrival or injection index
	vm   cluster.VMID // departing VM
}

// Sequence-number bands. Events at equal times pop in band order, and
// within a band in index order — exactly the order the old push-counter
// scheme produced (arrivals, then injections, then retrain ticks, then
// runtime-pushed departures). Making the bands explicit instead of
// implicit in push order is what lets a live injection, added mid-run
// through the Runner, land with the same sequence number it would have
// had if it had been scheduled from the start: the pop order — and
// therefore the event log — is byte-identical to the equivalent batch
// run.
const (
	seqInjectBand  = 1 << 40 // injections: seqInjectBand + injection index
	seqRetrainBand = 2 << 40 // cell-scoped retrain ticks: + tick index
	seqRuntimeBand = 3 << 40 // events pushed while running: + push counter
)

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq).
// (at, seq) is a strict total order — seq is unique per cell — so the
// minimum is always unique and the pop sequence is fully determined by
// the comparison alone, independent of the heap's internal layout. The
// methods avoid container/heap's interface boxing: pushing and popping
// an event allocates nothing once the backing array is grown.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popMin removes and returns the minimum event.
func (h *eventHeap) popMin() event {
	q := *h
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q[:n].down(0)
	return ev
}

// runningVM tracks one placed VM during the loop.
type runningVM struct {
	vm   cluster.VMRequest
	host int
	dec  core.Decision
}

// observer is the model-lifecycle listener a cell drives from its event
// loop: the cell-scoped mlops.Manager or the fleet pipeline's Collector.
type observer interface {
	ObserveOutcome(vm cluster.VMRequest, counters pmu.Vector, haveCounters bool)
	ForgetVM(id cluster.VMID)
}

// cellSim is one pool group's resumable discrete-event simulation.
// Everything is sequential and driven by RNGs forked from the injected
// cell RNG, so the cell's log depends only on (options, cell index,
// seed) — never on worker count or on how the horizon is sliced into
// epochs by the fleet-scoped barrier loop.
type cellSim struct {
	cell int
	o    Options

	tp      *topo.Topology
	devices []*emc.Device
	manager *pool.Manager
	spec    cluster.ServerSpec
	hosts   []*host.Host
	store   *telemetry.Store
	pipe    *core.Pipeline
	sched   *core.ClusterScheduler
	srv     *predict.Server
	insens  predict.Insensitivity
	ratio   float64

	// mgr drives cell-scoped retraining; col is the fleet pipeline's
	// collector under fleet scope. At most one is non-nil.
	mgr *mlops.Manager
	col *fleetpipeline.Collector
	// pinnedVer is the release version on the request path (fleet scope).
	pinnedVer int

	arrivals []cluster.VMRequest
	// arrSeed is the seed of the arrival-stream RNG fork, kept so a live
	// drift or surge injection can regenerate the stream bit-identically
	// to a batch run that had the injection from the start.
	arrSeed int64
	rPlace  *stats.Rand
	q       eventHeap
	seq     int
	running map[cluster.VMID]*runningVM
	log     strings.Builder
	// drainMark is the byte offset into log that Runner.DrainEvents has
	// consumed up to.
	drainMark int
	// logDigest is the SHA-256 midstate of the log prefix the Runner
	// compacted away (nil until compaction first fires, so the default
	// path allocates nothing); compacted counts the folded lines.
	logDigest hash.Hash
	compacted int

	// Hot-path scratch, all scoped to this cell (cells are sequential,
	// so reuse is race-free and deterministic): lbuf renders log lines,
	// ctrBuf receives PMU samples handed to Decide (the pipeline and its
	// shadow hooks read the counters synchronously and never retain the
	// pointer), featBuf backs the UMFeatures vector (observers copy it),
	// and rvFree recycles runningVM records across departures.
	lbuf    []byte
	ctrBuf  pmu.Vector
	featBuf []float64
	rvFree  []*runningVM

	totalCores             float64
	placedGB, placedPoolGB float64
	lastT                  float64
	utilSec, strandedGBSec float64

	// Capacity loop: ctrl is the elastic controller (nil when off);
	// demandEpoch the distribution since the last planning barrier,
	// demandTotal the whole-run one; staticPoolGB is the capacity
	// actually provisioned at build time (o.Cluster.PoolGB rounded down to
	// the per-EMC share — the savings baseline); poolGB caches the manager's
	// active capacity so per-event accounting never rescans devices;
	// savedGBSec integrates (static - actual) capacity over time;
	// lastFallbacks marks the scheduler's fallback counter at the last
	// barrier.
	ctrl          *capacity.Controller
	demandEpoch   *capacity.Demand
	demandTotal   *capacity.Demand
	staticPoolGB  int
	poolGB        int
	savedGBSec    float64
	lastFallbacks int64
	// lastPoolUsed is the pool draw at the last accounting point;
	// attemptGB the epoch's largest draw that wanted to happen (in-use
	// plus a failed request) — the censored-demand signal.
	lastPoolUsed float64
	attemptGB    int

	// Sim-time metrics sampling (see metrics.go; all zero when
	// MetricsEverySec is 0): metricsEvery is the cadence, sampleK the
	// index of the next sample (sample k fires at k*cadence), ring the
	// preallocated row buffer with its start/len cursor, ringDropped the
	// overflow count, and predErrEWMA/predErrN the departure-fed
	// prediction-error average the rows carry.
	metricsEvery float64
	sampleK      int
	ring         []MetricsRow
	ringStart    int
	ringLen      int
	ringDropped  int
	predErrEWMA  float64
	predErrN     int

	res CellResult
}

// newCellSim builds the cell's deployment: topology, devices, manager,
// hosts, control plane — the same wiring as pond.NewSystem.
func newCellSim(cell int, o Options, insens predict.Insensitivity, threshold float64, r *stats.Rand) (*cellSim, error) {
	c := &cellSim{cell: cell, o: o, insens: insens, res: CellResult{Cell: cell}}

	tp, err := topo.Build(o.Cluster.Topology, o.Cluster.Hosts, o.Cluster.EMCs, o.Cluster.PodDegree)
	if err != nil {
		return nil, err
	}
	c.tp = tp
	perEMC := o.Cluster.PoolGB / o.Cluster.EMCs
	c.devices = make([]*emc.Device, o.Cluster.EMCs)
	for i := range c.devices {
		c.devices[i] = emc.NewDevice(fmt.Sprintf("c%d-emc%d", cell, i), perEMC, o.Cluster.Hosts)
	}
	c.manager = pool.NewManagerTopo(c.devices, tp.Conn(), r.Fork(2))
	c.spec = cluster.ServerSpec{Sockets: 2, CoresPerSock: coresPerSocket, MemGBPerSock: memGBPerSocket}
	c.ratio = cxl.PondLatencyRatio(o.Cluster.Hosts * 2)
	c.hosts = make([]*host.Host, o.Cluster.Hosts)
	for i := range c.hosts {
		// The fleet loop never boots guests from placements, so the
		// per-VM guest topology is skipped (see host.Config).
		c.hosts[i] = host.New(emc.HostID(i), c.spec, host.Config{PoolLatencyRatio: c.ratio, SkipGuestTopology: true})
	}
	c.store = telemetry.NewStore()
	pcfg := core.DefaultConfig()
	pcfg.Ratio = c.ratio
	pcfg.PDM = qosPDM
	pcfg.TP = qosTP
	pcfg.InsensScoreThreshold = threshold
	var um predict.Untouched
	if !o.Model.Disabled {
		um = predict.HistoryQuantileUM{}
	}
	c.pipe = core.NewPipeline(pcfg, insens, um, c.store)
	c.sched = core.NewClusterScheduler(c.hosts, c.manager)

	// With predictions on, inference flows through the serving layer
	// (§5). Under cell scope the mlops manager shadow-scores every
	// decision — with retraining disabled it runs monitor-only (no
	// training rows), so frozen and retrained fleets report the same
	// prediction-error metrics.
	// Under fleet scope the barrier loop attaches a fleetpipeline
	// Collector instead, after construction.
	if !o.Model.Disabled {
		c.srv = predict.NewServer(insens, um)
		c.pipe.UseServer(c.srv)
		if o.Model.Scope != ScopeFleet {
			mcfg := mlops.DefaultConfig()
			mcfg.PromoteMargin = o.Model.PromoteMargin
			if o.Model.HoldoutWindow > 0 {
				mcfg.HoldoutWindow = o.Model.HoldoutWindow
			}
			if o.Model.MinTrainRows > 0 {
				mcfg.MinTrainRows = o.Model.MinTrainRows
			}
			mcfg.Seed = stats.ShardSeed(o.Engine.Seed, cell)
			mcfg.MonitorOnly = o.Model.RetrainEverySec == 0
			c.mgr = mlops.NewManager(mcfg, cell, c.srv, insens, threshold, um,
				c.ratio, qosPDM, c.pipe.SetInsensThreshold)
			c.pipe.SetShadowHook(c.mgr.ObserveDecision)
		}
	}

	// ForkSeed consumes exactly the one parent draw Fork(3) used to, so
	// the arrival stream is unchanged — but keeping the seed lets a live
	// injection regenerate the stream later (see regenerateArrivals).
	c.arrSeed = r.ForkSeed(3)
	c.arrivals = generateArrivals(o, cell, c.arrSeed)
	c.res.Arrivals = len(c.arrivals)
	c.rPlace = r.Fork(4)

	// Seed the queue: arrivals in time order, then injections, then the
	// cell-scoped retrain ticks (fleet scope drives barriers externally).
	// Presize the heap for every arrival plus its departure so steady
	// state never regrows it, and the log for the expected line volume.
	c.q = make(eventHeap, 0, 2*len(c.arrivals)+len(o.Injections)+8)
	c.log.Grow(96 * (2*len(c.arrivals) + 16))
	for i := range c.arrivals {
		c.pushSeq(event{at: c.arrivals[i].ArrivalSec, kind: evArrive, idx: i}, i)
	}
	for i, inj := range o.Injections {
		c.pushSeq(event{at: inj.atSec, kind: evInject, idx: i}, seqInjectBand+i)
	}
	if c.mgr != nil && o.Model.RetrainEverySec > 0 {
		k := 0
		for t := o.Model.RetrainEverySec; t <= o.Cluster.DurationSec; t += o.Model.RetrainEverySec {
			c.pushSeq(event{at: t, kind: evRetrain}, seqRetrainBand+k)
			k++
		}
	}

	c.running = make(map[cluster.VMID]*runningVM)
	c.totalCores = float64(o.Cluster.Hosts * c.spec.TotalCores())

	c.demandEpoch = capacity.NewDemand()
	c.demandTotal = capacity.NewDemand()
	// perEMC rounds down, so the provisioned capacity — not o.Cluster.PoolGB —
	// is the savings baseline; using the requested figure would bank
	// phantom savings whenever PoolGB does not divide across the EMCs.
	c.staticPoolGB = perEMC * o.Cluster.EMCs
	c.poolGB = c.staticPoolGB
	if o.Capacity.Elastic {
		// Floor at one slice per EMC so no topology pod ever goes dark.
		c.ctrl = capacity.NewController(capacity.ControllerConfig{
			TargetQoS: o.Capacity.TargetQoS,
			SliceGB:   emc.SliceGB,
			MinPoolGB: o.Cluster.EMCs * emc.SliceGB,
		})
	}
	if o.Engine.MetricsEverySec > 0 {
		// The ring is preallocated here so steady-state sampling writes
		// into existing rows and never allocates (sample 1 fires at the
		// cadence, not at t=0 — an all-zero row says nothing).
		c.metricsEvery = o.Engine.MetricsEverySec
		c.sampleK = 1
		c.ring = make([]MetricsRow, metricsRingCap(o.Cluster.DurationSec, o.Engine.MetricsEverySec))
	}
	return c, nil
}

// newRunningVM takes a record from the cell freelist, or allocates one.
func (c *cellSim) newRunningVM() *runningVM {
	if n := len(c.rvFree); n > 0 {
		rv := c.rvFree[n-1]
		c.rvFree = c.rvFree[:n-1]
		return rv
	}
	return &runningVM{}
}

// freeRunningVM recycles a record after its last read. The caller must
// not touch rv afterwards.
func (c *cellSim) freeRunningVM(rv *runningVM) {
	c.rvFree = append(c.rvFree, rv)
}

// observer returns the active lifecycle listener, nil when none.
func (c *cellSim) observer() observer {
	if c.mgr != nil {
		return c.mgr
	}
	if c.col != nil {
		return c.col
	}
	return nil
}

// push enqueues an event generated while the loop runs (departures,
// failure re-arms) in the runtime band: after every same-time seeded
// event, in push order among themselves — the order the old plain
// counter produced.
func (c *cellSim) push(ev event) {
	c.pushSeq(ev, seqRuntimeBand+c.seq)
	c.seq++
}

// pushSeq enqueues an event with an explicit banded sequence number.
func (c *cellSim) pushSeq(ev event, seq int) {
	ev.seq = seq
	c.q = append(c.q, ev)
	c.q.up(len(c.q) - 1)
}

// liveInject schedules the injection a Runner appended mid-run: o is
// the run's options with it as the last entry — index order is the
// determinism contract: the equivalent batch run lists live injections
// after the scheduled ones, in the order they were added. The cell
// adopts o (the list is shared read-only; the Runner only ever grows it
// by full-slice append into a fresh array) and enqueues the injection
// with the exact banded sequence number a batch-scheduled injection at
// that index would have carried. Drift and surge are baked into the
// pre-generated arrival stream, so those two kinds also regenerate it.
func (c *cellSim) liveInject(o Options, now float64) {
	c.o = o
	idx := len(o.Injections) - 1
	in := o.Injections[idx]
	c.pushSeq(event{at: in.atSec, kind: evInject, idx: idx}, seqInjectBand+idx)
	if in.kind == InjectDrift || in.kind == InjectSurge {
		c.regenerateArrivals(now)
	}
}

// regenerateArrivals rebuilds the arrival stream from the stored fork
// seed after a live drift or surge changed the injection list. Because
// generateArrivals is a pure function of (options, cell, seed), the
// regenerated stream is exactly what a batch run with the same
// injections would have drawn — and its pre-now prefix is unchanged,
// since drift and surge only alter draws at or after their firing time
// and a live injection cannot fire in the past. Every event already
// processed therefore keeps its bytes; only the pending arrival events
// need replacing.
func (c *cellSim) regenerateArrivals(now float64) {
	c.arrivals = generateArrivals(c.o, c.cell, c.arrSeed)
	c.res.Arrivals = len(c.arrivals)
	// Drop the stale pending arrivals, re-add those still due with their
	// band-0 sequence numbers, and re-establish the heap invariant. The
	// pop order depends only on the (at, seq) comparison — a strict
	// total order — so a heapified queue pops the same sequence a batch
	// run's incremental pushes would.
	q := c.q[:0]
	for _, ev := range c.q {
		if ev.kind != evArrive {
			q = append(q, ev)
		}
	}
	for i := range c.arrivals {
		if c.arrivals[i].ArrivalSec >= now {
			q = append(q, event{at: c.arrivals[i].ArrivalSec, seq: i, kind: evArrive, idx: i})
		}
	}
	c.q = q
	for i := len(c.q)/2 - 1; i >= 0; i-- {
		c.q.down(i)
	}
}

// compactLog folds the drained log prefix (the first drainMark bytes)
// into the cell's stream digest and keeps only the tail. Called by the
// Runner under SetCompactDrained.
func (c *cellSim) compactLog() {
	c.logDigest, c.compacted, c.drainMark = compactStream(&c.log, c.logDigest, c.compacted, c.drainMark)
}

// logf renders one cold-path log line through fmt. Hot-path events
// (arrive, depart, reject, qos-violation) use the append-based helpers
// below instead, which produce byte-identical output without boxing
// arguments or allocating.
func (c *cellSim) logf(at float64, format string, args ...any) {
	fmt.Fprintf(&c.log, "[c%d t=%.3f] ", c.cell, at)
	fmt.Fprintf(&c.log, format, args...)
	c.log.WriteByte('\n')
}

// logPrefix appends the shared "[c%d t=%.3f] " prefix to the line
// scratch buffer and returns it. strconv.AppendFloat with 'f'/3 renders
// exactly what fmt's %.3f does, and AppendInt exactly what %d does, so
// the zero-alloc helpers below reproduce logf's bytes bit for bit — the
// golden event logs pin this equivalence.
func (c *cellSim) logPrefix(at float64) []byte {
	b := append(c.lbuf[:0], "[c"...)
	b = strconv.AppendInt(b, int64(c.cell), 10)
	b = append(b, " t="...)
	b = appendFixed3(b, at)
	return append(b, "] "...)
}

// logLine commits a rendered line to the cell log, keeping the grown
// scratch buffer for the next event.
func (c *cellSim) logLine(b []byte) {
	b = append(b, '\n')
	c.log.Write(b)
	c.lbuf = b[:0]
}

// logArrive renders "arrive vm=%d cust=%d type=%s decision=%s host=%d
// local=%g pool=%g".
func (c *cellSim) logArrive(at float64, vm *cluster.VMRequest, kind core.DecisionKind, hostIdx int, localGB, poolGB float64) {
	b := c.logPrefix(at)
	b = append(b, "arrive vm="...)
	b = strconv.AppendInt(b, int64(vm.ID), 10)
	b = append(b, " cust="...)
	b = strconv.AppendInt(b, int64(vm.Customer), 10)
	b = append(b, " type="...)
	b = append(b, vm.Type.Name...)
	b = append(b, " decision="...)
	b = append(b, kind.String()...)
	b = append(b, " host="...)
	b = strconv.AppendInt(b, int64(hostIdx), 10)
	b = append(b, " local="...)
	b = strconv.AppendFloat(b, localGB, 'g', -1, 64)
	b = append(b, " pool="...)
	b = strconv.AppendFloat(b, poolGB, 'g', -1, 64)
	c.logLine(b)
}

// logDepart renders "depart vm=%d host=%d".
func (c *cellSim) logDepart(at float64, id cluster.VMID, hostIdx int) {
	b := c.logPrefix(at)
	b = append(b, "depart vm="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " host="...)
	b = strconv.AppendInt(b, int64(hostIdx), 10)
	c.logLine(b)
}

// logReject renders "reject vm=%d type=%s cores=%d mem=%g".
func (c *cellSim) logReject(at float64, vm *cluster.VMRequest) {
	b := c.logPrefix(at)
	b = append(b, "reject vm="...)
	b = strconv.AppendInt(b, int64(vm.ID), 10)
	b = append(b, " type="...)
	b = append(b, vm.Type.Name...)
	b = append(b, " cores="...)
	b = strconv.AppendInt(b, int64(vm.Type.Cores), 10)
	b = append(b, " mem="...)
	b = strconv.AppendFloat(b, vm.Type.MemoryGB, 'g', -1, 64)
	c.logLine(b)
}

// logQoS renders "qos-violation vm=%d decision=%s slowdown=%.3f".
func (c *cellSim) logQoS(at float64, id cluster.VMID, kind core.DecisionKind, slowdown float64) {
	b := c.logPrefix(at)
	b = append(b, "qos-violation vm="...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, " decision="...)
	b = append(b, kind.String()...)
	b = append(b, " slowdown="...)
	b = appendFixed3(b, slowdown)
	c.logLine(b)
}

// account integrates the time-weighted utilization metrics up to now.
func (c *cellSim) account(now float64) {
	dt := now - c.lastT
	if dt <= 0 {
		return
	}
	freeCores, stranded, poolUsed := 0, 0.0, 0.0
	for _, h := range c.hosts {
		freeCores += h.FreeCores()
		stranded += h.StrandedGB()
		poolUsed += h.OnlinePoolGB() - h.FreePoolGB()
	}
	c.lastPoolUsed = poolUsed
	c.utilSec += dt * (c.totalCores - float64(freeCores)) / c.totalCores
	c.strandedGBSec += dt * stranded
	c.demandEpoch.Observe(dt, poolUsed)
	c.demandTotal.Observe(dt, poolUsed)
	c.savedGBSec += dt * float64(c.staticPoolGB-c.poolGB)
	if poolUsed > c.res.PeakPoolUsedGB {
		c.res.PeakPoolUsedGB = poolUsed
	}
	c.lastT = now
}

// applyPin installs a fleet-pipeline barrier assignment: the collector's
// shadow slots always, and — when the serving release changed — the
// cell's inference server is re-pinned to the new generation and the
// change is logged in the cell's own stream.
func (c *cellSim) applyPin(a fleetpipeline.Assignment, now float64) {
	c.col.Install(a)
	if a.ServeVer == c.pinnedVer {
		return
	}
	c.pipe.Server().Pin(a.ServeVer, c.insens, a.Serve)
	c.pinnedVer = a.ServeVer
	c.res.ServedVersions = append(c.res.ServedVersions, a.ServeVer)
	c.logf(now, "fleetpipeline pin ver=%d role=%s", a.ServeVer, a.Role)
}

// planTick runs one elastic-pool planning barrier: the demand observed
// since the previous barrier becomes a pool-size target and the Pool
// Manager grows or shrinks toward it (shrinks retire free slices only —
// live and draining capacity is never revoked). The decision is pure
// arithmetic over cell-local state and is logged into the cell's own
// stream, so the event log stays byte-identical for any worker count.
func (c *cellSim) planTick(now float64) {
	c.account(now)
	cur := c.manager.PoolGB()
	total := c.sched.Fallbacks()
	fallbacks := int(total - c.lastFallbacks)
	c.lastFallbacks = total
	target := c.ctrl.Target(c.demandEpoch, c.manager.AssignedGB(now), fallbacks, c.attemptGB, cur)
	ev := capacity.PlanEvent{
		Cell:        c.cell,
		AtSec:       now,
		PoolGB:      cur,
		TargetGB:    target,
		PeakGB:      c.demandEpoch.PeakGB(),
		QGB:         c.demandEpoch.QuantileGB(1 - c.o.Capacity.TargetQoS),
		Fallbacks:   fallbacks,
		AttemptedGB: c.attemptGB,
	}
	switch {
	case target > cur:
		ev.GrewGB = c.manager.Grow(target - cur)
	case target < cur:
		ev.ShrunkGB = c.manager.Shrink(cur-target, now)
	}
	c.poolGB = c.manager.PoolGB()
	ev.NewPoolGB = c.poolGB
	c.res.Plans = append(c.res.Plans, ev)
	c.demandEpoch.Reset()
	c.attemptGB = 0
	c.logf(now, "%s", ev)
}

// runUntil processes events strictly before tEnd; with final set it
// also takes events at exactly tEnd — the horizon boundary is inclusive,
// barrier boundaries are not (a barrier's effects apply before anything
// stamped at or after it).
func (c *cellSim) runUntil(tEnd float64, final bool) error {
	o := c.o
	for len(c.q) > 0 {
		if next := c.q[0].at; next > tEnd || (!final && next == tEnd) {
			break
		}
		// Emit metric samples due at or before the next event, before it
		// mutates anything: a row stamped at an event's exact time shows
		// the pre-event state. Inclusive here, exclusive at non-final
		// slice ends (the tail call below), so the series is independent
		// of how the horizon is sliced — a barrier's effects land before
		// any row stamped at or after it, mirroring the event rule.
		c.sampleMetricsUpTo(c.q[0].at, true)
		ev := c.q.popMin()
		c.account(ev.at)
		now := ev.at
		switch ev.kind {
		case evArrive:
			vm := c.arrivals[ev.idx]
			w := vm.GroundTruth.Workload

			// Admission through the Figure 13 control plane: history
			// counters when the customer has completed VMs before. The
			// counter vector and feature slice are per-cell scratch —
			// Decide and its shadow hooks consume them synchronously.
			var counters *pmu.Vector
			hist := c.store.CustomerHistory(vm.Customer, now+1, predict.HistoryWindowSec)
			if hist.Count > 0 {
				pmu.SampleInto(&c.ctrBuf, w, c.rPlace)
				counters = &c.ctrBuf
			}
			c.featBuf = predict.UMFeaturesInto(c.featBuf[:0], vm, hist)
			d := c.pipe.Decide(vm, counters, c.featBuf)
			pr, perr := c.sched.Place(vm, d, now)
			if perr != nil {
				c.res.Rejected++
				if obsv := c.observer(); obsv != nil {
					obsv.ForgetVM(vm.ID)
				}
				c.logReject(now, &c.arrivals[ev.idx])
				continue
			}
			if pr.FellBackToLocal {
				// Record the draw the pool could not serve: demand above
				// capacity is invisible to the usage telemetry, so the
				// capacity controller needs the attempted size to grow past.
				if a := int(c.lastPoolUsed + d.PoolGB + 0.5); a > c.attemptGB {
					c.attemptGB = a
				}
				d = core.Decision{Kind: core.AllLocal, LocalGB: vm.Type.MemoryGB}
			}
			pmu.SampleInto(&c.ctrBuf, w, c.rPlace)
			c.store.RecordSample(vm.ID, c.ctrBuf)
			c.res.Placed++
			c.placedGB += vm.Type.MemoryGB
			c.placedPoolGB += pr.Placement.PoolGB
			rv := c.newRunningVM()
			rv.vm, rv.host, rv.dec = vm, pr.HostIndex, d
			c.running[vm.ID] = rv
			c.push(event{at: now + vm.LifetimeSec, kind: evDepart, vm: vm.ID})
			c.logArrive(now, &c.arrivals[ev.idx], d.Kind, pr.HostIndex, pr.Placement.LocalGB, pr.Placement.PoolGB)

		case evDepart:
			st, ok := c.running[ev.vm]
			if !ok {
				continue // lost to an earlier EMC failure
			}
			delete(c.running, ev.vm)
			p, rerr := c.sched.Release(st.host, ev.vm, now)
			if rerr != nil {
				return fmt.Errorf("cell %d: release vm %d: %w", c.cell, ev.vm, rerr)
			}
			c.store.RecordOutcome(p.VM.Customer, now, p.VM.GroundTruth.UntouchedFrac)
			if !o.Model.Disabled {
				// Departure is when the QoS monitor's verdict is final:
				// ground truth turns the decision into an outcome, and
				// flagged customers skip the all-pool path from now on.
				out := c.pipe.Evaluate(st.vm, st.dec)
				if out.ExceedsPDM {
					c.res.QoSViolations++
					c.logQoS(now, ev.vm, st.dec.Kind, out.SlowdownFrac)
				}
				if out.Mitigated {
					c.res.Mitigations++
				}
				c.observePredErr(st)
			}
			if obsv := c.observer(); obsv != nil {
				mc, okc := c.store.MeanCounters(ev.vm)
				obsv.ObserveOutcome(st.vm, mc, okc)
			}
			c.store.ForgetVM(ev.vm)
			c.res.Departed++
			hostIdx := st.host
			c.freeRunningVM(st)
			c.hosts[hostIdx].RecyclePlacement(p)
			c.logDepart(now, ev.vm, hostIdx)

		case evInject:
			inj := o.Injections[ev.idx]
			switch inj.kind {
			case InjectEMCFail:
				blast, ferr := c.sched.FailEMC(inj.emc, now)
				lostGB := 0.0
				for _, p := range blast {
					id := p.VM.ID
					st := c.running[id]
					delete(c.running, id)
					lostGB += p.VM.Type.MemoryGB
					c.store.ForgetVM(id)
					if obsv := c.observer(); obsv != nil {
						obsv.ForgetVM(id)
					}
					c.hosts[st.host].RecyclePlacement(p)
					c.freeRunningVM(st)
				}
				if ferr != nil {
					return fmt.Errorf("cell %d: emc-fail: %w", c.cell, ferr)
				}
				c.res.BlastVMs += len(blast)
				c.logf(now, "inject emc-fail emc=%d blast-hosts=%d blast-vms=%d lost-gb=%g",
					inj.emc, c.tp.BlastRadiusHosts(inj.emc), len(blast), lostGB)

			case InjectHostDrain:
				migrations, remaining, derr := c.sched.DrainHost(inj.host, now)
				if derr != nil {
					return derr
				}
				for _, m := range migrations {
					if st, ok := c.running[m.VM]; ok {
						st.host = m.Target
					}
				}
				c.res.Migrated += len(migrations)
				c.logf(now, "inject host-drain host=%d migrated=%d remaining=%d", inj.host, len(migrations), len(remaining))

			case InjectSurge:
				c.logf(now, "inject surge x=%g dur=%g", inj.factor, inj.durSec)

			case InjectResize:
				applied := 0
				if inj.slices > 0 {
					if gerr := c.manager.GrowEMC(inj.emc, inj.slices*emc.SliceGB); gerr == nil {
						applied = inj.slices
					} // a failed EMC grows nothing; applied stays 0
				} else {
					gb, serr := c.manager.ShrinkEMC(inj.emc, -inj.slices*emc.SliceGB, now)
					if serr != nil {
						return fmt.Errorf("cell %d: resize: %w", c.cell, serr)
					}
					applied = -gb / emc.SliceGB
				}
				c.poolGB = c.manager.PoolGB()
				c.logf(now, "inject resize emc=%d slices=%+d applied=%+d pool=%d",
					inj.emc, inj.slices, applied, c.poolGB)

			case InjectDrift:
				// The population shift itself happened in the arrival
				// stream; this marks the moment in the event log —
				// regional drifts record whether this cell is in range.
				if inj.cellHi >= 0 {
					c.logf(now, "inject drift mag=%g cells=%d-%d applied=%t",
						inj.mag, inj.cellLo, inj.cellHi, inj.AppliesTo(c.cell))
				} else {
					c.logf(now, "inject drift mag=%g", inj.mag)
				}
			}

		case evRetrain:
			for _, le := range c.mgr.Tick(now) {
				c.logf(now, "%s", le)
			}
		}
	}
	c.sampleMetricsUpTo(tEnd, final)
	if final {
		// The horizon slice consumed every arrival, and nothing reads the
		// stream afterwards: Inject refuses a done run, finish and
		// Progress read res.Arrivals, and a restore regenerates the stream
		// from its fork seed. Release it instead of holding it until
		// Finish.
		c.arrivals = nil
	}
	return nil
}

// finish integrates the tail accounting, renders the summary lines, and
// returns the cell's result with its retained event log: the full
// stream, or only the undrained tail under drained-prefix compaction.
func (c *cellSim) finish() (CellResult, string, error) {
	o := c.o
	c.account(o.Cluster.DurationSec)

	if o.Cluster.DurationSec > 0 {
		c.res.AvgCoreUtil = c.utilSec / o.Cluster.DurationSec
		c.res.AvgStrandedGB = c.strandedGBSec / o.Cluster.DurationSec
	}
	if c.placedGB > 0 {
		c.res.PoolShare = c.placedPoolGB / c.placedGB
	}
	if c.mgr != nil {
		q := c.mgr.Quality()
		c.res.Retrains, c.res.Promotions, c.res.Demotions = q.Retrains, q.Promotions, q.Demotions
		c.res.UMChampVer, c.res.InsensChampVer = q.UMChampVer, q.InsensChampVer
		c.res.PredErrMean, c.res.PredErrFinal = q.UMLossMean, q.UMLossFinal
		c.res.InsensErrMean = q.InsensLossMean
		c.res.Lifecycle = c.mgr.Events()
		if o.Model.Capture {
			dump, derr := c.mgr.SnapshotJSON()
			if derr != nil {
				return c.res, "", fmt.Errorf("cell %d: model snapshot: %w", c.cell, derr)
			}
			c.res.ModelDump = dump
		}
		c.logf(o.Cluster.DurationSec, "mlops summary retrains=%d promotions=%d demotions=%d um-ver=%d insens-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f",
			q.Retrains, q.Promotions, q.Demotions, q.UMChampVer, q.InsensChampVer,
			q.UMLossMean, q.UMLossFinal, q.InsensLossMean)
	}
	if c.col != nil {
		q := c.col.Quality()
		c.res.UMChampVer = q.ServeVer
		c.res.PredErrMean, c.res.PredErrFinal = q.ServeLossMean, q.ServeLossFinal
		c.res.InsensErrMean = q.InsensLossMean
		c.logf(o.Cluster.DurationSec, "fleetpipeline cell summary serve-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f",
			q.ServeVer, q.ServeLossMean, q.ServeLossFinal, q.InsensLossMean)
	}
	c.res.FinalPoolGB = c.poolGB
	if o.Cluster.DurationSec > 0 {
		c.res.DRAMSavedGB = c.savedGBSec / o.Cluster.DurationSec
	}
	if c.ringLen > 0 {
		c.res.Series = c.drainMetricsInto(c.res.Series)
	}
	c.res.MetricsDropped = c.ringDropped
	c.res.Fallbacks = int(c.sched.Fallbacks())
	c.res.Demand = c.demandTotal
	if qs := c.store.UntouchedQuantiles(0.5, 0.9); qs != nil {
		c.res.UntouchedP50, c.res.UntouchedP90 = qs[0], qs[1]
	}
	if o.Capacity.Elastic || c.poolGB != c.staticPoolGB {
		c.logf(o.Cluster.DurationSec, "elastic summary plans=%d final-pool=%d dram-saved=%.2f fallbacks=%d",
			len(c.res.Plans), c.poolGB, c.res.DRAMSavedGB, c.res.Fallbacks)
	}
	c.logf(o.Cluster.DurationSec, "summary arrivals=%d placed=%d rejected=%d departed=%d blast-vms=%d migrated=%d qos=%d util=%.3f stranded=%.3f pool-share=%.4f",
		c.res.Arrivals, c.res.Placed, c.res.Rejected, c.res.Departed, c.res.BlastVMs, c.res.Migrated,
		c.res.QoSViolations, c.res.AvgCoreUtil, c.res.AvgStrandedGB, c.res.PoolShare)
	log := c.log.String()
	if c.logDigest != nil {
		// Complete the stream hash from the midstate; the prefix bytes it
		// absorbed are gone, so log is just the tail.
		io.WriteString(c.logDigest, log)
		c.res.LogSHA = hex.EncodeToString(c.logDigest.Sum(nil))
	} else {
		c.res.LogSHA = streamSHA256(log)
	}
	c.res.Compacted = c.compacted
	return c.res, log, nil
}
