package pond

import "pond/internal/fleet"

// The fleet configuration types are declared once, in internal/fleet,
// where their field documentation lives; pond re-exports them so the Go
// API, the pondfleet flags, and pondserve request bodies share one type
// per concept.
type (
	// FleetOpts configures RunFleet and StartFleet: the grouped,
	// JSON-tagged sub-configs plus the scheduled injections, with one
	// validation path (Validate) underneath every entry point.
	FleetOpts = fleet.Options
	// ClusterOpts sizes the simulated fleet: per-cell topology and
	// hardware, cell count, and horizon.
	ClusterOpts = fleet.ClusterOpts
	// ArrivalOpts describes the VM arrival process.
	ArrivalOpts = fleet.ArrivalOpts
	// ModelOpts configures the prediction pipeline and the online
	// model-lifecycle loop.
	ModelOpts = fleet.ModelOpts
	// CapacityOpts configures the online capacity-planning loop.
	CapacityOpts = fleet.CapacityOpts
	// EngineOpts controls execution, not behaviour.
	EngineOpts = fleet.EngineOpts
	// Injection is one scheduled scenario event — an EMC failure, host
	// drain, demand surge, workload drift, or pool resize. JSON carries
	// it as its canonical spec string (e.g. "emc-fail@t=500:emc=1"); the
	// zero Injection is invalid, so build one with ParseInjection.
	Injection = fleet.Injection
)

// ParseInjection parses a single scenario spec such as
// "surge@t=300:dur=200:x=3" or "drift@t=2000:mag=0.6:cells=0-1".
func ParseInjection(spec string) (Injection, error) { return fleet.ParseInjection(spec) }

// ParseInjections parses a comma-separated scenario list; an empty
// string yields nil.
func ParseInjections(s string) ([]Injection, error) { return fleet.ParseInjections(s) }

// Defaults returns the fully-populated default configuration — four
// flat-topology cells of 8 hosts x 4 EMCs, Poisson arrivals, predictions
// on. It is the single source of truth the pondfleet usage text and
// docs/DEFAULTS.md are generated from; conditional defaults (values
// derived from other fields at run time) are listed in DefaultNotes.
func Defaults() FleetOpts { return fleet.DefaultOptions() }

// DefaultNote documents one zero-value default that is derived from
// other fields at run time rather than being a fixed number.
type DefaultNote struct {
	Field string
	Note  string
}

// DefaultNotes lists the conditional defaults, one sentence each — the
// companion to Defaults for doc generation. Keeping the sentences in
// this one place is what stops the three doc sites (struct godoc,
// pondfleet usage, README) drifting apart again.
func DefaultNotes() []DefaultNote {
	return []DefaultNote{
		{"Model.CanaryFraction", "0 means 0.25 of the cells (rounded up to at least one); fleet scope only."},
		{"Model.BakeWindowSec", "0 means twice Model.RetrainEverySec; fleet scope only."},
		{"Model.PromoteMargin", "0 means the mlops default of 5%."},
		{"Model.HoldoutWindow", "0 means the mlops default window."},
		{"Model.MinTrainRows", "0 means the mlops default row floor."},
		{"Capacity.PlanEverySec", "0 means an eighth of Cluster.DurationSec; elastic pool only."},
		{"Capacity.TargetQoS", "0 means 0.01; elastic pool only."},
		{"Engine.Workers", "0 means GOMAXPROCS; never changes results."},
		{"Engine.MetricsEverySec", "0 disables sim-time metrics sampling; any value never changes results."},
	}
}
