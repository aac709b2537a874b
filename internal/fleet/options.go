package fleet

import (
	"fmt"
	"math"

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

// The QoS knobs and host shape every cell runs with: the paper's
// evaluation point of PDM = 5% at TP = 98% (§5), on dual-socket hosts
// of 24 cores and 192 GB per socket.
const (
	qosPDM         = 0.05
	qosTP          = 0.98
	coresPerSocket = 24
	memGBPerSocket = 192
)

// ClusterOpts sizes the simulated fleet: the per-cell topology and
// hardware, how many independent cells run, and for how long. The zero
// value of any field falls back to the Defaults value.
type ClusterOpts struct {
	// Topology is the host-to-EMC connectivity of every cell: "flat",
	// "sharded", or "sparse" (Octopus-style overlapping pods).
	Topology string `json:"topology,omitempty"`
	// PodDegree is the per-host EMC count under "sparse".
	PodDegree int `json:"pod_degree,omitempty"`
	// Hosts is the number of hypervisor hosts per cell.
	Hosts int `json:"hosts,omitempty"`
	// EMCs is the number of external memory controllers per cell.
	EMCs int `json:"emcs,omitempty"`
	// PoolGB is each cell's pool capacity in GB, split evenly across its
	// EMCs.
	PoolGB int `json:"pool_gb,omitempty"`
	// Cells is the number of independent pool groups (engine shards).
	Cells int `json:"cells,omitempty"`
	// DurationSec is the simulated horizon.
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// ArrivalOpts describes the VM arrival process — the declarative form
// of the "poisson:rate=0.05:life=600" spec strings the CLI takes.
type ArrivalOpts struct {
	// Process is "poisson" (memoryless arrivals, exponential lifetimes)
	// or "trace" (interarrivals derived from the cluster generator).
	Process string `json:"process,omitempty"`
	// RatePerSec is the Poisson arrival rate in VMs per second.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// MeanLifetimeSec is the mean exponential VM lifetime under poisson.
	MeanLifetimeSec float64 `json:"mean_lifetime_sec,omitempty"`
}

// ModelOpts configures the prediction pipeline and the online
// model-lifecycle loop (§5 of the paper).
type ModelOpts struct {
	// Disabled turns off the ML scheduling pipeline entirely — the
	// no-pooling baseline. The zero value keeps predictions on.
	Disabled bool `json:"disabled,omitempty"`
	// RetrainEverySec > 0 closes the model-lifecycle loop: models
	// retrain from live telemetry at this cadence, shadow-score against
	// the serving champions, and hot-swap on proven improvement.
	RetrainEverySec float64 `json:"retrain_every_sec,omitempty"`
	// Scope selects where retraining happens: "cell" (the default —
	// every cell runs its own champion/challenger lifecycle) or "fleet"
	// (one central pipeline with staged canary rollout across cells).
	Scope string `json:"scope,omitempty"`
	// CanaryFraction is the fraction of cells a fleet-scoped release
	// reaches first, rounded up to at least one cell (0 = 0.25).
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	// BakeWindowSec is how long a fleet-scoped canary bakes before its
	// promote-or-rollback verdict (0 = twice the retrain cadence).
	BakeWindowSec float64 `json:"bake_window_sec,omitempty"`
	// PromoteMargin is the fractional rolling-loss improvement a
	// challenger must show to be promoted (0 = the 5% default).
	PromoteMargin float64 `json:"promote_margin,omitempty"`
	// HoldoutWindow is the rolling comparison window in completed VMs
	// (0 = the mlops default).
	HoldoutWindow int `json:"holdout_window,omitempty"`
	// MinTrainRows is the minimum completed VMs before a challenger is
	// trained (0 = the mlops default).
	MinTrainRows int `json:"min_train_rows,omitempty"`
	// Capture includes each cell's versioned model snapshots in the
	// report (see Report.ModelDumps).
	Capture bool `json:"capture,omitempty"`
}

// CapacityOpts configures the online capacity-planning loop that closes
// the telemetry-to-DRAM-savings cycle.
type CapacityOpts struct {
	// Elastic turns on the controller: at every PlanEverySec barrier
	// each cell re-plans its pool size from observed demand and grows or
	// shrinks the EMCs through the Pool Manager's elastic APIs.
	Elastic bool `json:"elastic,omitempty"`
	// PlanEverySec is the planning-barrier cadence in simulated seconds
	// (0 = an eighth of the horizon). Elastic only.
	PlanEverySec float64 `json:"plan_every_sec,omitempty"`
	// TargetQoS is the tolerated fraction of time pool demand may exceed
	// capacity — the controller's sizing target (0 = 0.01). Elastic
	// only.
	TargetQoS float64 `json:"target_qos,omitempty"`
}

// EngineOpts controls execution, not behaviour: results are
// byte-identical for every Workers value.
type EngineOpts struct {
	// Workers bounds the engine worker pool; <= 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Seed roots every cell's RNG stream (0 means the default seed).
	Seed int64 `json:"seed,omitempty"`
	// MetricsEverySec > 0 samples each cell's sim-time metrics series
	// (live VMs, pool use, queue depth, prediction error) at this cadence
	// in simulated seconds, drained via FleetRun.DrainMetrics. Sampling
	// only reads simulation state: the event log and report are
	// byte-identical with it on or off. 0 disables sampling.
	MetricsEverySec float64 `json:"metrics_every_sec,omitempty"`
}

// Options configures a fleet run: RunFleet and StartFleet in the public
// API, which re-exports it as pond.FleetOpts. Configuration lives in the
// grouped, JSON-tagged sub-configs — the same declarative types drive
// the Go API, the pondfleet flags, and pondserve request bodies, with
// one validation path underneath (Validate).
type Options struct {
	Cluster  ClusterOpts  `json:"cluster"`
	Arrivals ArrivalOpts  `json:"arrival"`
	Model    ModelOpts    `json:"model"`
	Capacity CapacityOpts `json:"capacity"`
	Engine   EngineOpts   `json:"engine"`

	// Injections are the scheduled scenario events, applied to every
	// cell (regional drifts restrict themselves to their cell range). In
	// JSON each is its canonical spec string, e.g. "emc-fail@t=500:emc=1".
	Injections []Injection `json:"injections,omitempty"`
}

// DefaultOptions returns the fully-populated default configuration —
// four flat-topology cells of 8 hosts x 4 EMCs sharing 512 GB each,
// Poisson arrivals, predictions on. Fields left zero keep their
// zero-value meaning; those derived from other fields at run time are
// listed in pond.DefaultNotes.
func DefaultOptions() Options {
	return Options{
		Cluster: ClusterOpts{
			Topology:    topo.Flat,
			PodDegree:   2,
			Hosts:       8,
			EMCs:        4,
			PoolGB:      512,
			Cells:       4,
			DurationSec: 1000,
		},
		Arrivals: ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.05, MeanLifetimeSec: 600},
		Model:    ModelOpts{Scope: ScopeCell},
		Engine:   EngineOpts{Seed: 1},
	}
}

// Validate runs the full normalization — the same checks Run, NewRunner
// and RestoreRunner apply — without running anything. pondserve
// validates request bodies through here. pondfleet's flag validation
// first re-checks most of the same fields itself, so its messages name
// the flag; what it leaves out, such as an injection's target or the
// arrival cap, fails in this normalization when the run starts.
func (o Options) Validate() error {
	_, err := normalize(o)
	return err
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// normalize fills zero fields from the defaults and validates the rest.
func normalize(o Options) (Options, error) {
	d := DefaultOptions()
	cl, arr, m, cp := &o.Cluster, &o.Arrivals, &o.Model, &o.Capacity
	if cl.Topology == "" {
		cl.Topology = d.Cluster.Topology
	}
	if cl.PodDegree <= 0 {
		cl.PodDegree = d.Cluster.PodDegree
	}
	if cl.Hosts <= 0 {
		cl.Hosts = d.Cluster.Hosts
	}
	if cl.EMCs <= 0 {
		cl.EMCs = d.Cluster.EMCs
	}
	if cl.PoolGB <= 0 {
		cl.PoolGB = d.Cluster.PoolGB
	}
	if cl.Cells <= 0 {
		cl.Cells = d.Cluster.Cells
	}
	if cl.DurationSec <= 0 {
		cl.DurationSec = d.Cluster.DurationSec
	}
	switch arr.Process {
	case "":
		arr.Process = d.Arrivals.Process
	case ArrivalPoisson, ArrivalTrace:
	default:
		return o, fmt.Errorf("fleet: unknown arrival model %q (want %s or %s)", arr.Process, ArrivalPoisson, ArrivalTrace)
	}
	if arr.RatePerSec < 0 || !finite(arr.RatePerSec) {
		return o, fmt.Errorf("fleet: arrival rate %g/s must be a finite number >= 0", arr.RatePerSec)
	}
	if arr.RatePerSec == 0 {
		arr.RatePerSec = d.Arrivals.RatePerSec
	}
	if arr.MeanLifetimeSec < 0 || !finite(arr.MeanLifetimeSec) {
		return o, fmt.Errorf("fleet: mean VM lifetime %gs must be a finite number >= 0", arr.MeanLifetimeSec)
	}
	if arr.MeanLifetimeSec == 0 {
		arr.MeanLifetimeSec = d.Arrivals.MeanLifetimeSec
	}
	if o.Engine.Seed == 0 {
		o.Engine.Seed = d.Engine.Seed
	}
	if m.Scope == "" {
		m.Scope = ScopeCell
	}
	if cl.PoolGB < cl.EMCs {
		return o, fmt.Errorf("fleet: pool of %d GB cannot shard across %d EMCs", cl.PoolGB, cl.EMCs)
	}
	if m.RetrainEverySec < 0 || !finite(m.RetrainEverySec) {
		return o, fmt.Errorf("fleet: retrain interval %gs must be a finite number >= 0", m.RetrainEverySec)
	}
	if m.RetrainEverySec > 0 && m.Disabled {
		return o, fmt.Errorf("fleet: retraining requires predictions")
	}
	if m.Capture && m.Disabled {
		return o, fmt.Errorf("fleet: capturing models requires predictions")
	}
	if !(m.PromoteMargin >= 0 && m.PromoteMargin < 1) { // rejects NaN too
		return o, fmt.Errorf("fleet: promotion margin %g must be in [0, 1)", m.PromoteMargin)
	}
	if m.HoldoutWindow < 0 || m.MinTrainRows < 0 {
		return o, fmt.Errorf("fleet: holdout window and min train rows must be >= 0")
	}
	switch m.Scope {
	case ScopeCell:
		// Rollout knobs are fleet-scope-only; a non-zero value under cell
		// scope is a configuration mistake, not something to ignore.
		if m.CanaryFraction != 0 || m.BakeWindowSec != 0 {
			return o, fmt.Errorf("fleet: canary fraction and bake window require model scope %q", ScopeFleet)
		}
	case ScopeFleet:
		if m.RetrainEverySec <= 0 {
			return o, fmt.Errorf("fleet: model scope %q requires a retrain cadence", ScopeFleet)
		}
		if m.CanaryFraction == 0 {
			m.CanaryFraction = 0.25
		}
		if !(m.CanaryFraction > 0 && m.CanaryFraction <= 1) { // rejects NaN too
			return o, fmt.Errorf("fleet: canary fraction %g must be in (0, 1]", m.CanaryFraction)
		}
		if m.BakeWindowSec < 0 || !finite(m.BakeWindowSec) {
			return o, fmt.Errorf("fleet: bake window %gs must be a finite number >= 0", m.BakeWindowSec)
		}
		if m.BakeWindowSec == 0 {
			m.BakeWindowSec = 2 * m.RetrainEverySec
		}
	default:
		return o, fmt.Errorf("fleet: unknown model scope %q (want %s or %s)", m.Scope, ScopeCell, ScopeFleet)
	}
	if every := o.Engine.MetricsEverySec; every < 0 || !finite(every) {
		return o, fmt.Errorf("fleet: metrics cadence %gs must be a finite number >= 0", every)
	}
	if !cp.Elastic && (cp.PlanEverySec != 0 || cp.TargetQoS != 0) {
		// Elastic knobs without the elastic pool are a configuration
		// mistake, not something to ignore (same discipline as canary/bake
		// under cell scope).
		return o, fmt.Errorf("fleet: plan cadence and QoS target require the elastic pool")
	}
	if cp.Elastic {
		if cp.PlanEverySec < 0 || !finite(cp.PlanEverySec) {
			return o, fmt.Errorf("fleet: plan cadence %gs must be a finite number >= 0", cp.PlanEverySec)
		}
		if cp.PlanEverySec == 0 {
			cp.PlanEverySec = cl.DurationSec / 8
		}
		if cp.PlanEverySec >= cl.DurationSec {
			return o, fmt.Errorf("fleet: plan cadence %gs never fires within the %gs horizon", cp.PlanEverySec, cl.DurationSec)
		}
		if cp.TargetQoS == 0 {
			cp.TargetQoS = 0.01
		}
		if !(cp.TargetQoS > 0 && cp.TargetQoS < 1) { // rejects NaN too
			return o, fmt.Errorf("fleet: QoS target %g must be in (0, 1)", cp.TargetQoS)
		}
	}
	if _, err := topo.Build(cl.Topology, cl.Hosts, cl.EMCs, cl.PodDegree); err != nil {
		return o, err
	}
	for _, in := range o.Injections {
		if err := ValidateInjection(in, o); err != nil {
			return o, err
		}
	}
	return o, checkArrivalCap(o)
}

// checkArrivalCap refuses options whose expected per-cell arrival count
// — base process plus surge extras — exceeds MaxArrivalsPerCell. Both
// normalization and the Runner's live-injection path check through
// here, the latter with the new injection already appended, so a surge
// added mid-run meets the same cap as one scheduled from the start.
func checkArrivalCap(o Options) error {
	if n := expectedArrivals(o); !(n <= MaxArrivalsPerCell) { // rejects NaN too
		return fmt.Errorf("fleet: %s arrival rate %g/s over the %gs horizon expects %.3g arrivals per cell, above the %d cap",
			o.Arrivals.Process, baseArrivalRate(o), o.Cluster.DurationSec, n, MaxArrivalsPerCell)
	}
	return nil
}

// ValidateInjection checks one injection against the sized fleet. It is
// shared by Options normalization and the Runner's live-injection path,
// so a scenario POSTed into a running simulation meets exactly the same
// rules as one scheduled from the command line.
func ValidateInjection(in Injection, o Options) error {
	cl := o.Cluster
	if (in.kind == InjectEMCFail || in.kind == InjectResize) && (in.emc < 0 || in.emc >= cl.EMCs) {
		return fmt.Errorf("fleet: injection %s targets EMC %d of %d", in, in.emc, cl.EMCs)
	}
	if in.kind == InjectResize && (in.slices == 0 || in.slices < -MaxResizeSlices || in.slices > MaxResizeSlices) {
		return fmt.Errorf("fleet: injection %s must resize by a non-zero count of at most %d slices", in, MaxResizeSlices)
	}
	if in.kind == InjectHostDrain && (in.host < 0 || in.host >= cl.Hosts) {
		return fmt.Errorf("fleet: injection %s targets host %d of %d", in, in.host, cl.Hosts)
	}
	if in.kind == InjectDrift && in.cellHi >= 0 {
		if in.cellLo < 0 || in.cellLo > in.cellHi {
			return fmt.Errorf("fleet: injection %s has an empty cell range", in)
		}
		if in.cellHi >= cl.Cells {
			return fmt.Errorf("fleet: injection %s targets cell %d of %d", in, in.cellHi, cl.Cells)
		}
	}
	if in.atSec > cl.DurationSec {
		// Refuse rather than silently never firing: the caller asked
		// for a scenario the horizon cannot contain.
		return fmt.Errorf("fleet: injection %s fires after the %gs horizon", in, cl.DurationSec)
	}
	return nil
}
