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
	"math"
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

// Model-retraining scopes.
const (
	// ScopeCell: every cell runs its own champion/challenger lifecycle
	// (the PR-3 behaviour, and the default).
	ScopeCell = "cell"
	// ScopeFleet: one central pipeline pools telemetry across cells and
	// deploys a single release train through staged canary rollout (§5).
	ScopeFleet = "fleet"
)

// Options configures a fleet run. The zero value of any field falls back
// to the corresponding DefaultOptions value.
type Options struct {
	// Topology names the host-to-EMC graph of every cell: flat, sharded,
	// or sparse (see internal/topo).
	Topology string
	// PodDegree is the per-host EMC count under sparse.
	PodDegree int

	// Hosts, EMCs, and PoolGB size each cell's pool group.
	Hosts  int
	EMCs   int
	PoolGB int

	// CoresPerSocket and MemGBPerSocket shape each dual-socket host.
	CoresPerSocket int
	MemGBPerSocket float64

	// Cells is the number of independent pool groups; each is one
	// engine shard.
	Cells int

	// DurationSec is the simulated horizon of each cell.
	DurationSec float64

	// Arrival is the VM arrival process.
	Arrival ArrivalModel

	// Injections are the scheduled scenario events, applied to every
	// cell (regional drifts restrict themselves to their cell range).
	Injections []Injection

	// Predictions enables the ML scheduling pipeline; when false every
	// VM is all-local (the no-pooling baseline).
	Predictions bool

	// RetrainEverySec > 0 turns on the online model-lifecycle loop:
	// models retrain from live telemetry at this cadence. Requires
	// Predictions.
	RetrainEverySec float64
	// ModelScope selects where retraining happens: ScopeCell (default)
	// or ScopeFleet (pooled telemetry, staged cross-cell rollout).
	ModelScope string
	// CanaryFraction is the fraction of cells a fleet-scoped release
	// reaches first (rounded up to at least one cell; 0 means the
	// default 0.25). Fleet scope only.
	CanaryFraction float64
	// BakeWindowSec is how long a fleet-scoped canary bakes before its
	// promote-or-rollback verdict (0 means twice the retrain cadence).
	// Fleet scope only.
	BakeWindowSec float64
	// PromoteMargin is the fractional loss improvement required to
	// promote a challenger (or demote a regressed champion); zero means
	// the mlops default.
	PromoteMargin float64
	// HoldoutWindow is the rolling comparison window in completed VMs;
	// zero means the mlops default.
	HoldoutWindow int
	// MinTrainRows is the minimum completed VMs before a challenger is
	// trained; zero means the mlops default.
	MinTrainRows int
	// CaptureModels dumps the versioned model snapshots into the report
	// (per cell under ScopeCell, the release train under ScopeFleet).
	CaptureModels bool

	// ElasticPool turns on the online capacity controller: at every
	// PlanEverySec barrier each cell re-plans its pool size from the
	// demand observed since the previous barrier and grows or shrinks the
	// EMCs through the Pool Manager's elastic APIs (shrinks retire only
	// free slices — live VMs are never stranded).
	ElasticPool bool
	// PlanEverySec is the planning-barrier cadence (0 means an eighth of
	// the horizon). Elastic pool only.
	PlanEverySec float64
	// TargetQoS is the tolerated fraction of time pool demand may exceed
	// capacity — the controller's and the offline planner's sizing target
	// (0 means the 0.01 default). Elastic pool only.
	TargetQoS float64

	// PDM and TP are the QoS knobs (§5).
	PDM float64
	TP  float64

	// MetricsEverySec > 0 samples each cell's sim-time metrics series
	// (live VMs, pool used/free, queue depth, pred-err EWMA) at this
	// simulated cadence into a preallocated per-cell ring, drained via
	// Runner.DrainMetrics and surfaced in CellResult.Series. Sampling
	// reads sim state only: the event log and report hashes are
	// byte-identical with metrics on or off. 0 disables sampling.
	MetricsEverySec float64

	// Workers bounds the engine pool; <= 0 means GOMAXPROCS. Results
	// are byte-identical for every value.
	Workers int
	// Seed roots every cell's RNG stream.
	Seed int64
}

// DefaultOptions returns the default fleet: four 8-host cells with four
// 128 GB EMCs each, Poisson arrivals, predictions on.
func DefaultOptions() Options {
	return Options{
		Topology:       topo.Flat,
		PodDegree:      2,
		Hosts:          8,
		EMCs:           4,
		PoolGB:         512,
		CoresPerSocket: 24,
		MemGBPerSocket: 192,
		Cells:          4,
		DurationSec:    1000,
		Arrival:        DefaultArrival(),
		Predictions:    true,
		ModelScope:     ScopeCell,
		PDM:            0.05,
		TP:             0.98,
		Seed:           1,
	}
}

// normalize fills zero fields from the defaults and validates the rest.
func normalize(o Options) (Options, error) {
	d := DefaultOptions()
	if o.Topology == "" {
		o.Topology = d.Topology
	}
	if o.PodDegree <= 0 {
		o.PodDegree = d.PodDegree
	}
	if o.Hosts <= 0 {
		o.Hosts = d.Hosts
	}
	if o.EMCs <= 0 {
		o.EMCs = d.EMCs
	}
	if o.PoolGB <= 0 {
		o.PoolGB = d.PoolGB
	}
	if o.CoresPerSocket <= 0 {
		o.CoresPerSocket = d.CoresPerSocket
	}
	if o.MemGBPerSocket <= 0 {
		o.MemGBPerSocket = d.MemGBPerSocket
	}
	if o.Cells <= 0 {
		o.Cells = d.Cells
	}
	if o.DurationSec <= 0 {
		o.DurationSec = d.DurationSec
	}
	switch o.Arrival.Kind {
	case "":
		o.Arrival.Kind = d.Arrival.Kind
	case ArrivalPoisson, ArrivalTrace:
	default:
		return o, fmt.Errorf("fleet: unknown arrival model %q (want %s or %s)", o.Arrival.Kind, ArrivalPoisson, ArrivalTrace)
	}
	if o.Arrival.RatePerSec < 0 || math.IsNaN(o.Arrival.RatePerSec) || math.IsInf(o.Arrival.RatePerSec, 0) {
		return o, fmt.Errorf("fleet: arrival rate %g/s must be a finite number >= 0", o.Arrival.RatePerSec)
	}
	if o.Arrival.RatePerSec == 0 {
		o.Arrival.RatePerSec = d.Arrival.RatePerSec
	}
	if o.Arrival.MeanLifetimeSec < 0 || math.IsNaN(o.Arrival.MeanLifetimeSec) || math.IsInf(o.Arrival.MeanLifetimeSec, 0) {
		return o, fmt.Errorf("fleet: mean VM lifetime %gs must be a finite number >= 0", o.Arrival.MeanLifetimeSec)
	}
	if o.Arrival.MeanLifetimeSec == 0 {
		o.Arrival.MeanLifetimeSec = d.Arrival.MeanLifetimeSec
	}
	if o.PDM <= 0 {
		o.PDM = d.PDM
	}
	if o.TP <= 0 {
		o.TP = d.TP
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.ModelScope == "" {
		o.ModelScope = ScopeCell
	}
	if o.PoolGB < o.EMCs {
		return o, fmt.Errorf("fleet: pool of %d GB cannot shard across %d EMCs", o.PoolGB, o.EMCs)
	}
	if o.RetrainEverySec < 0 || math.IsNaN(o.RetrainEverySec) || math.IsInf(o.RetrainEverySec, 0) {
		return o, fmt.Errorf("fleet: retrain interval %gs must be a finite number >= 0", o.RetrainEverySec)
	}
	if o.RetrainEverySec > 0 && !o.Predictions {
		return o, fmt.Errorf("fleet: retraining requires predictions")
	}
	if o.CaptureModels && !o.Predictions {
		return o, fmt.Errorf("fleet: capturing models requires predictions")
	}
	if !(o.PromoteMargin >= 0 && o.PromoteMargin < 1) { // rejects NaN too
		return o, fmt.Errorf("fleet: promotion margin %g must be in [0, 1)", o.PromoteMargin)
	}
	if o.HoldoutWindow < 0 || o.MinTrainRows < 0 {
		return o, fmt.Errorf("fleet: holdout window and min train rows must be >= 0")
	}
	switch o.ModelScope {
	case ScopeCell:
		// Rollout knobs are fleet-scope-only; a non-zero value under cell
		// scope is a configuration mistake, not something to ignore.
		if o.CanaryFraction != 0 || o.BakeWindowSec != 0 {
			return o, fmt.Errorf("fleet: canary fraction and bake window require model scope %q", ScopeFleet)
		}
	case ScopeFleet:
		if o.RetrainEverySec <= 0 {
			return o, fmt.Errorf("fleet: model scope %q requires a retrain cadence", ScopeFleet)
		}
		if o.CanaryFraction == 0 {
			o.CanaryFraction = 0.25
		}
		if !(o.CanaryFraction > 0 && o.CanaryFraction <= 1) { // rejects NaN too
			return o, fmt.Errorf("fleet: canary fraction %g must be in (0, 1]", o.CanaryFraction)
		}
		if o.BakeWindowSec < 0 || math.IsNaN(o.BakeWindowSec) || math.IsInf(o.BakeWindowSec, 0) {
			return o, fmt.Errorf("fleet: bake window %gs must be a finite number >= 0", o.BakeWindowSec)
		}
		if o.BakeWindowSec == 0 {
			o.BakeWindowSec = 2 * o.RetrainEverySec
		}
	default:
		return o, fmt.Errorf("fleet: unknown model scope %q (want %s or %s)", o.ModelScope, ScopeCell, ScopeFleet)
	}
	if o.MetricsEverySec < 0 || math.IsNaN(o.MetricsEverySec) || math.IsInf(o.MetricsEverySec, 0) {
		return o, fmt.Errorf("fleet: metrics cadence %gs must be a finite number >= 0", o.MetricsEverySec)
	}
	if !o.ElasticPool && (o.PlanEverySec != 0 || o.TargetQoS != 0) {
		// Elastic knobs without the elastic pool are a configuration
		// mistake, not something to ignore (same discipline as canary/bake
		// under cell scope).
		return o, fmt.Errorf("fleet: plan cadence and QoS target require the elastic pool")
	}
	if o.ElasticPool {
		if o.PlanEverySec < 0 || math.IsNaN(o.PlanEverySec) || math.IsInf(o.PlanEverySec, 0) {
			return o, fmt.Errorf("fleet: plan cadence %gs must be a finite number >= 0", o.PlanEverySec)
		}
		if o.PlanEverySec == 0 {
			o.PlanEverySec = o.DurationSec / 8
		}
		if o.PlanEverySec >= o.DurationSec {
			return o, fmt.Errorf("fleet: plan cadence %gs never fires within the %gs horizon", o.PlanEverySec, o.DurationSec)
		}
		if o.TargetQoS == 0 {
			o.TargetQoS = 0.01
		}
		if !(o.TargetQoS > 0 && o.TargetQoS < 1) { // rejects NaN too
			return o, fmt.Errorf("fleet: QoS target %g must be in (0, 1)", o.TargetQoS)
		}
	}
	if _, err := topo.Build(o.Topology, o.Hosts, o.EMCs, o.PodDegree); err != nil {
		return o, err
	}
	for _, in := range o.Injections {
		if err := ValidateInjection(in, o); err != nil {
			return o, err
		}
	}
	if n := expectedArrivals(o); !(n <= MaxArrivalsPerCell) { // rejects NaN too
		return o, fmt.Errorf("fleet: arrival rate %g/s over the %gs horizon expects %.3g arrivals per cell, above the %d cap",
			o.Arrival.RatePerSec, o.DurationSec, n, MaxArrivalsPerCell)
	}
	return o, nil
}

// NormalizeOptions fills zero fields from the defaults and validates the
// rest — the single validation path shared by Run, the Runner, and the
// public pond facade (flag parsing and serve request bodies both land
// here).
func NormalizeOptions(o Options) (Options, error) { return normalize(o) }

// ValidateInjection checks one injection against the sized fleet. It is
// shared by Options normalization and the Runner's live-injection path,
// so a scenario POSTed into a running simulation meets exactly the same
// rules as one scheduled from the command line.
func ValidateInjection(in Injection, o Options) error {
	if (in.Kind == InjectEMCFail || in.Kind == InjectResize) && (in.EMC < 0 || in.EMC >= o.EMCs) {
		return fmt.Errorf("fleet: injection %s targets EMC %d of %d", in, in.EMC, o.EMCs)
	}
	if in.Kind == InjectResize && (in.Slices == 0 || in.Slices < -MaxResizeSlices || in.Slices > MaxResizeSlices) {
		return fmt.Errorf("fleet: injection %s must resize by a non-zero count of at most %d slices", in, MaxResizeSlices)
	}
	if in.Kind == InjectHostDrain && (in.Host < 0 || in.Host >= o.Hosts) {
		return fmt.Errorf("fleet: injection %s targets host %d of %d", in, in.Host, o.Hosts)
	}
	if in.Kind == InjectDrift && in.CellHi >= 0 {
		if in.CellLo < 0 || in.CellLo > in.CellHi {
			return fmt.Errorf("fleet: injection %s has an empty cell range", in)
		}
		if in.CellHi >= o.Cells {
			return fmt.Errorf("fleet: injection %s targets cell %d of %d", in, in.CellHi, o.Cells)
		}
	}
	if in.AtSec > o.DurationSec {
		// Refuse rather than silently never firing: the caller asked
		// for a scenario the horizon cannot contain.
		return fmt.Errorf("fleet: injection %s fires after the %gs horizon", in, o.DurationSec)
	}
	return nil
}

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
	// ModelDump holds the versioned model snapshots (CaptureModels under
	// cell scope).
	ModelDump json.RawMessage

	// Series is the cell's sim-time metrics series (MetricsEverySec > 0)
	// — the full series for a one-shot run, or only the undrained tail
	// when the Runner drained rows along the way. MetricsDropped counts
	// rows lost to ring overflow (0 for serially drained runs).
	Series         []MetricsRow
	MetricsDropped int

	// Log is the cell's event log — the full stream, or only its
	// undrained tail when the Runner ran with drained-prefix compaction.
	Log string
	// LogSHA is the hex SHA-256 of the cell's complete event-log stream,
	// compacted prefix included. Compacted counts the lines that were
	// folded into the digest and released (0 without compaction).
	LogSHA    string
	Compacted int
}

// Report is the merged outcome of a fleet run.
type Report struct {
	Options      Options
	TopologyDesc string
	Cells        []CellResult

	Arrivals, Placed, Rejected, Departed int
	BlastVMs, Migrated                   int
	QoSViolations, Mitigations           int
	AvgCoreUtil                          float64
	AvgStrandedGB                        float64
	PeakPoolUsedGB                       float64
	PoolShare                            float64

	// Capacity loop, aggregated across cells: FinalPoolGB sums the
	// cells' end-of-run pools, DRAMSavedGB their time-averaged savings
	// versus static provisioning, Fallbacks the pool-exhaustion
	// downgrades; PlanHistory is every planning decision in cell order.
	FinalPoolGB int
	DRAMSavedGB float64
	Fallbacks   int
	PlanHistory []capacity.PlanEvent

	// Model lifecycle, aggregated across cells (zero unless retraining
	// ran). Under fleet scope the counters describe the release train:
	// retrains, fleet-wide promotions, canary rollbacks, demotions.
	Retrains, Promotions, Demotions int
	Rollbacks                       int
	// PredErrMean / PredErrFinal are cell means of the serving
	// untouched-memory model's asymmetric loss (whole run / final
	// window); InsensErrMean likewise for the insensitivity score.
	PredErrMean, PredErrFinal float64
	InsensErrMean             float64
	// Lifecycle is every cell's retrain/promote/demote history in cell
	// order (cell scope).
	Lifecycle []mlops.Event
	// Rollout is the fleet release train's stage-transition history
	// (fleet scope): retrain, canary-start, hold, promote, rollback,
	// demote — deterministic and byte-identical for any worker count.
	Rollout []fleetpipeline.Event
	// ChampionVer is the fleet champion release at run end (fleet scope).
	ChampionVer int
	// ModelDumps is one versioned-model snapshot document per cell
	// (CaptureModels; a single release-train document under fleet
	// scope).
	ModelDumps []json.RawMessage

	// EventLog is the concatenation of all cell logs in cell order,
	// followed by the fleet pipeline's barrier log under fleet scope.
	// Under drained-prefix compaction it carries only the retained tails;
	// Events always counts the full run's log lines.
	EventLog string
	Events   int
	// LogSHA256 is the determinism witness: the SHA-256 of the stream
	// manifest — one hex SHA-256 line per cell stream in cell order, then
	// one for the fleet stream (always present, even when empty). Hashing
	// per stream is what lets drained prefixes be folded into running
	// digests and released without changing the final hash; recompute it
	// from a full log with EventLogSHA256.
	LogSHA256 string
}

// String renders a one-screen summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: topology=%s cells=%d hosts=%d emcs=%d pool=%dGB arrival=%s duration=%gs seed=%d\n",
		r.Options.Topology, r.Options.Cells, r.Options.Hosts, r.Options.EMCs, r.Options.PoolGB,
		r.Options.Arrival, r.Options.DurationSec, r.Options.Seed)
	fmt.Fprintf(&b, "  %s\n", r.TopologyDesc)
	fmt.Fprintf(&b, "  arrivals=%d placed=%d rejected=%d departed=%d blast-vms=%d migrated=%d\n",
		r.Arrivals, r.Placed, r.Rejected, r.Departed, r.BlastVMs, r.Migrated)
	fmt.Fprintf(&b, "  core-util=%.1f%% stranded=%.1fGB peak-pool-used=%.0fGB pool-share=%.1f%% qos-violations=%d mitigated=%d\n",
		100*r.AvgCoreUtil, r.AvgStrandedGB, r.PeakPoolUsedGB, 100*r.PoolShare, r.QoSViolations, r.Mitigations)
	if r.Options.ElasticPool {
		fmt.Fprintf(&b, "  elastic: plan-every=%gs target-qos=%.2f%% plans=%d final-pool=%dGB dram-saved=%.1fGB fallbacks=%d\n",
			r.Options.PlanEverySec, 100*r.Options.TargetQoS, len(r.PlanHistory),
			r.FinalPoolGB, r.DRAMSavedGB, r.Fallbacks)
	}
	if r.Options.RetrainEverySec > 0 && r.Options.ModelScope == ScopeFleet {
		fmt.Fprintf(&b, "  fleet-mlops: scope=fleet canary=%.2f bake=%gs retrains=%d promotions=%d rollbacks=%d demotions=%d champion-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f\n",
			r.Options.CanaryFraction, r.Options.BakeWindowSec,
			r.Retrains, r.Promotions, r.Rollbacks, r.Demotions, r.ChampionVer,
			r.PredErrMean, r.PredErrFinal, r.InsensErrMean)
	} else if r.Options.RetrainEverySec > 0 {
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
	if !o.Predictions {
		return nil, 0
	}
	ratio := cxl.PondLatencyRatio(o.Hosts * 2)
	ds := predict.BuildSensitivityDataset(ratio, o.PDM, 3, o.Seed)
	rf := predict.TrainForest(ds.X, ds.Insensitive, o.Seed)
	threshold := predict.ThresholdForLabelRate(predict.DatasetScores(rf, ds), 0.30)
	return rf, threshold
}

// assembleReport merges the per-cell results — and the fleet pipeline's
// log and release-train counters, when one ran — into the final report,
// concatenates the (retained) event log in cell order, and hashes the
// stream manifest. fleetSHA is the fleet stream's precomputed hex hash
// when the Runner compacted it ("" means hash fleetLog here), and
// fleetCompacted its folded-away line count.
func assembleReport(o Options, results []CellResult, fleetLog, fleetSHA string, fleetCompacted int, fp *fleetpipeline.Manager) (*Report, error) {
	rep := &Report{Options: o, Cells: results}
	tp, _ := topo.Build(o.Topology, o.Hosts, o.EMCs, o.PodDegree)
	rep.TopologyDesc = tp.Describe()
	var log strings.Builder
	logLen := 0
	for _, c := range results {
		logLen += len(c.Log)
	}
	log.Grow(logLen + len(fleetLog))
	for _, c := range results {
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
		log.WriteString(c.Log)
	}
	if fp != nil {
		counts := fp.Counts()
		rep.Retrains = counts.Retrains
		rep.Promotions = counts.Promotions
		rep.Demotions = counts.Demotions
		rep.Rollbacks = counts.Rollbacks
		rep.Rollout = fp.Events()
		rep.ChampionVer = fp.ChampionVer()
		if o.CaptureModels {
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
	// cell order, then the fleet stream. Results without a stream hash
	// (synthetic test results) fall back to hashing their full log here.
	var manifest strings.Builder
	for _, c := range results {
		sha := c.LogSHA
		if sha == "" {
			sha = streamSHA256(c.Log)
		}
		manifest.WriteString(sha)
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

// cellIndices returns [0, n).
func cellIndices(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
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
			t := float64(k) * o.RetrainEverySec
			if t >= o.DurationSec {
				break
			}
			add(t, true, false)
		}
	}
	if o.ElasticPool {
		for k := 1; ; k++ {
			t := float64(k) * o.PlanEverySec
			if t >= o.DurationSec {
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
	// actually provisioned at build time (o.PoolGB rounded down to the
	// per-EMC share — the savings baseline); poolGB caches the manager's
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

	tp, err := topo.Build(o.Topology, o.Hosts, o.EMCs, o.PodDegree)
	if err != nil {
		return nil, err
	}
	c.tp = tp
	perEMC := o.PoolGB / o.EMCs
	c.devices = make([]*emc.Device, o.EMCs)
	for i := range c.devices {
		c.devices[i] = emc.NewDevice(fmt.Sprintf("c%d-emc%d", cell, i), perEMC, o.Hosts)
	}
	c.manager = pool.NewManagerTopo(c.devices, tp.Conn(), r.Fork(2))
	c.spec = cluster.ServerSpec{Sockets: 2, CoresPerSock: o.CoresPerSocket, MemGBPerSock: o.MemGBPerSocket}
	c.ratio = cxl.PondLatencyRatio(o.Hosts * 2)
	c.hosts = make([]*host.Host, o.Hosts)
	for i := range c.hosts {
		// The fleet loop never boots guests from placements, so the
		// per-VM guest topology is skipped (see host.Config).
		c.hosts[i] = host.New(emc.HostID(i), c.spec, host.Config{PoolLatencyRatio: c.ratio, SkipGuestTopology: true})
	}
	c.store = telemetry.NewStore()
	pcfg := core.DefaultConfig()
	pcfg.Ratio = c.ratio
	pcfg.PDM = o.PDM
	pcfg.TP = o.TP
	pcfg.InsensScoreThreshold = threshold
	var um predict.Untouched
	if o.Predictions {
		um = predict.HistoryQuantileUM{}
	}
	c.pipe = core.NewPipeline(pcfg, insens, um, c.store)
	c.sched = core.NewClusterScheduler(c.hosts, c.manager)

	// With predictions on, inference flows through the serving layer
	// (§5). Under cell scope the mlops manager shadow-scores every
	// decision — with retraining disabled it runs monitor-only, so frozen
	// and retrained fleets report the same prediction-error metrics.
	// Under fleet scope the barrier loop attaches a fleetpipeline
	// Collector instead, after construction.
	if o.Predictions {
		c.srv = predict.NewServer(insens, um)
		c.pipe.UseServer(c.srv)
		if o.ModelScope != ScopeFleet {
			mcfg := mlops.DefaultConfig()
			mcfg.PromoteMargin = o.PromoteMargin
			if o.HoldoutWindow > 0 {
				mcfg.HoldoutWindow = o.HoldoutWindow
			}
			if o.MinTrainRows > 0 {
				mcfg.MinTrainRows = o.MinTrainRows
			}
			mcfg.Seed = stats.ShardSeed(o.Seed, cell)
			c.mgr = mlops.NewManager(mcfg, cell, c.srv, insens, threshold, um,
				c.ratio, o.PDM, c.pipe.SetInsensThreshold)
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
		c.pushSeq(event{at: inj.AtSec, kind: evInject, idx: i}, seqInjectBand+i)
	}
	if c.mgr != nil && o.RetrainEverySec > 0 {
		k := 0
		for t := o.RetrainEverySec; t <= o.DurationSec; t += o.RetrainEverySec {
			c.pushSeq(event{at: t, kind: evRetrain}, seqRetrainBand+k)
			k++
		}
	}

	c.running = make(map[cluster.VMID]*runningVM)
	c.totalCores = float64(o.Hosts * c.spec.TotalCores())

	c.demandEpoch = capacity.NewDemand()
	c.demandTotal = capacity.NewDemand()
	// perEMC rounds down, so the provisioned capacity — not o.PoolGB —
	// is the savings baseline; using the requested figure would bank
	// phantom savings whenever PoolGB does not divide across the EMCs.
	c.staticPoolGB = perEMC * o.EMCs
	c.poolGB = c.staticPoolGB
	if o.ElasticPool {
		// Floor at one slice per EMC so no topology pod ever goes dark.
		c.ctrl = capacity.NewController(capacity.ControllerConfig{
			TargetQoS: o.TargetQoS,
			SliceGB:   emc.SliceGB,
			MinPoolGB: o.EMCs * emc.SliceGB,
		})
	}
	if o.MetricsEverySec > 0 {
		// The ring is preallocated here so steady-state sampling writes
		// into existing rows and never allocates (sample 1 fires at the
		// cadence, not at t=0 — an all-zero row says nothing).
		c.metricsEvery = o.MetricsEverySec
		c.sampleK = 1
		c.ring = make([]MetricsRow, metricsRingCap(o.DurationSec, o.MetricsEverySec))
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

// liveInject schedules an injection added mid-run through the Runner.
// The injection is appended to the cell's own copy of the injection
// list — index order is the determinism contract: the equivalent batch
// run lists live injections after the scheduled ones, in the order they
// were added — and enqueued with the exact banded sequence number a
// batch-scheduled injection at that index would have carried. Drift and
// surge are baked into the pre-generated arrival stream, so those two
// kinds also regenerate it.
func (c *cellSim) liveInject(in Injection, now float64) {
	idx := len(c.o.Injections)
	// Full-slice append: the seeded Options share one backing array
	// across every cell's copy, so an in-place grow from one cell could
	// be observed by another. Forcing a fresh allocation keeps each
	// cell's list independent.
	c.o.Injections = append(c.o.Injections[:idx:idx], in)
	c.pushSeq(event{at: in.AtSec, kind: evInject, idx: idx}, seqInjectBand+idx)
	if in.Kind == InjectDrift || in.Kind == InjectSurge {
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
		QGB:         c.demandEpoch.QuantileGB(1 - c.o.TargetQoS),
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
			if o.Predictions {
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
			switch inj.Kind {
			case InjectEMCFail:
				c.devices[inj.EMC].Fail()
				// Blast radius: every running VM with slices on the dead
				// device, released in id order.
				var blast []cluster.VMID
				for id, st := range c.running {
					for _, ref := range hostSlices(c.hosts[st.host], id) {
						if ref.EMC == inj.EMC {
							blast = append(blast, id)
							break
						}
					}
				}
				sort.Slice(blast, func(i, j int) bool { return blast[i] < blast[j] })
				lostGB := 0.0
				for _, id := range blast {
					st := c.running[id]
					delete(c.running, id)
					p, rerr := c.hosts[st.host].ReleaseVM(id)
					if rerr != nil {
						return fmt.Errorf("cell %d: blast release vm %d: %w", c.cell, id, rerr)
					}
					lostGB += p.VM.Type.MemoryGB
					// Slices on the failed device are gone; survivors on
					// other EMCs drain back through the manager.
					var alive []pool.SliceRef
					for _, ref := range p.Slices {
						if ref.EMC != inj.EMC {
							alive = append(alive, ref)
						}
					}
					if err := c.hosts[st.host].RemovePoolCapacity(float64(len(p.Slices))); err != nil {
						return fmt.Errorf("cell %d: blast offline vm %d: %w", c.cell, id, err)
					}
					if len(alive) > 0 {
						c.manager.ReleaseCapacity(emc.HostID(st.host), alive, now)
					}
					c.store.ForgetVM(id)
					if obsv := c.observer(); obsv != nil {
						obsv.ForgetVM(id)
					}
					c.hosts[st.host].RecyclePlacement(p)
					c.freeRunningVM(st)
				}
				c.res.BlastVMs += len(blast)
				c.logf(now, "inject emc-fail emc=%d blast-hosts=%d blast-vms=%d lost-gb=%g",
					inj.EMC, c.tp.BlastRadiusHosts(inj.EMC), len(blast), lostGB)

			case InjectHostDrain:
				migrations, remaining, derr := c.sched.DrainHost(inj.Host, now)
				if derr != nil {
					return derr
				}
				for _, m := range migrations {
					if st, ok := c.running[m.VM]; ok {
						st.host = m.Target
					}
				}
				c.res.Migrated += len(migrations)
				c.logf(now, "inject host-drain host=%d migrated=%d remaining=%d", inj.Host, len(migrations), len(remaining))

			case InjectSurge:
				c.logf(now, "inject surge x=%g dur=%g", inj.Factor, inj.DurSec)

			case InjectResize:
				applied := 0
				if inj.Slices > 0 {
					if gerr := c.manager.GrowEMC(inj.EMC, inj.Slices*emc.SliceGB); gerr == nil {
						applied = inj.Slices
					} // a failed EMC grows nothing; applied stays 0
				} else {
					gb, serr := c.manager.ShrinkEMC(inj.EMC, -inj.Slices*emc.SliceGB, now)
					if serr != nil {
						return fmt.Errorf("cell %d: resize: %w", c.cell, serr)
					}
					applied = -gb / emc.SliceGB
				}
				c.poolGB = c.manager.PoolGB()
				c.logf(now, "inject resize emc=%d slices=%+d applied=%+d pool=%d",
					inj.EMC, inj.Slices, applied, c.poolGB)

			case InjectDrift:
				// The population shift itself happened in the arrival
				// stream; this marks the moment in the event log —
				// regional drifts record whether this cell is in range.
				if inj.CellHi >= 0 {
					c.logf(now, "inject drift mag=%g cells=%d-%d applied=%t",
						inj.Mag, inj.CellLo, inj.CellHi, inj.AppliesTo(c.cell))
				} else {
					c.logf(now, "inject drift mag=%g", inj.Mag)
				}
			}

		case evRetrain:
			for _, le := range c.mgr.Tick(now) {
				c.logf(now, "%s", le)
			}
		}
	}
	c.sampleMetricsUpTo(tEnd, final)
	return nil
}

// finish integrates the tail accounting, renders the summary lines, and
// returns the cell's result.
func (c *cellSim) finish() (CellResult, error) {
	o := c.o
	c.account(o.DurationSec)

	if o.DurationSec > 0 {
		c.res.AvgCoreUtil = c.utilSec / o.DurationSec
		c.res.AvgStrandedGB = c.strandedGBSec / o.DurationSec
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
		if o.CaptureModels {
			dump, derr := c.mgr.SnapshotJSON()
			if derr != nil {
				return c.res, fmt.Errorf("cell %d: model snapshot: %w", c.cell, derr)
			}
			c.res.ModelDump = dump
		}
		c.logf(o.DurationSec, "mlops summary retrains=%d promotions=%d demotions=%d um-ver=%d insens-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f",
			q.Retrains, q.Promotions, q.Demotions, q.UMChampVer, q.InsensChampVer,
			q.UMLossMean, q.UMLossFinal, q.InsensLossMean)
	}
	if c.col != nil {
		q := c.col.Quality()
		c.res.UMChampVer = q.ServeVer
		c.res.PredErrMean, c.res.PredErrFinal = q.ServeLossMean, q.ServeLossFinal
		c.res.InsensErrMean = q.InsensLossMean
		c.logf(o.DurationSec, "fleetpipeline cell summary serve-ver=%d pred-err=%.4f pred-err-final=%.4f insens-err=%.4f",
			q.ServeVer, q.ServeLossMean, q.ServeLossFinal, q.InsensLossMean)
	}
	c.res.FinalPoolGB = c.poolGB
	if o.DurationSec > 0 {
		c.res.DRAMSavedGB = c.savedGBSec / o.DurationSec
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
	if o.ElasticPool || c.poolGB != c.staticPoolGB {
		c.logf(o.DurationSec, "elastic summary plans=%d final-pool=%d dram-saved=%.2f fallbacks=%d",
			len(c.res.Plans), c.poolGB, c.res.DRAMSavedGB, c.res.Fallbacks)
	}
	c.logf(o.DurationSec, "summary arrivals=%d placed=%d rejected=%d departed=%d blast-vms=%d migrated=%d qos=%d util=%.3f stranded=%.3f pool-share=%.4f",
		c.res.Arrivals, c.res.Placed, c.res.Rejected, c.res.Departed, c.res.BlastVMs, c.res.Migrated,
		c.res.QoSViolations, c.res.AvgCoreUtil, c.res.AvgStrandedGB, c.res.PoolShare)
	c.res.Log = c.log.String()
	if c.logDigest != nil {
		// Complete the stream hash from the midstate; the prefix bytes it
		// absorbed are gone, so res.Log is just the tail.
		io.WriteString(c.logDigest, c.res.Log)
		c.res.LogSHA = hex.EncodeToString(c.logDigest.Sum(nil))
	} else {
		c.res.LogSHA = streamSHA256(c.res.Log)
	}
	c.res.Compacted = c.compacted
	return c.res, nil
}

// hostSlices returns a VM's pool slices on its host (nil when unknown).
func hostSlices(h *host.Host, id cluster.VMID) []pool.SliceRef {
	if p, ok := h.Placement(id); ok {
		return p.Slices
	}
	return nil
}
