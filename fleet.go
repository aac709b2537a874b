package pond

import (
	"context"
	"encoding/json"
	"fmt"

	"pond/internal/fleet"
)

// FleetReport is the merged outcome of an online fleet run.
type FleetReport struct {
	// Topology echoes the topology that ran.
	Topology string
	// TopologyDesc is the topology's one-line description with its
	// blast-radius summary.
	TopologyDesc string

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

	// AvgCoreUtil is the time-weighted scheduled-core fraction.
	AvgCoreUtil float64
	// AvgStrandedGB is the time-weighted stranded memory (§2).
	AvgStrandedGB float64
	// PeakPoolUsedGB is the highest pool usage any cell reached — the
	// demand signal capacity planning sizes against.
	PeakPoolUsedGB float64
	// PoolShare is the GB-weighted share of placed memory on pool DRAM.
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
	// PlanHistory lists every planning-barrier decision in cell order,
	// rendered one per line. Byte-identical for any worker count.
	PlanHistory []string

	// ModelScope echoes the retraining scope that ran ("cell" or
	// "fleet").
	ModelScope string

	// Model lifecycle (populated when predictions run; the counters stay
	// zero unless retraining was enabled). Under fleet scope they
	// describe the release train: retrains, fleet-wide promotions,
	// demotions — and Rollbacks counts challengers the canary bake
	// stopped from ever reaching a non-canary cell.
	Retrains, Promotions, Demotions int
	Rollbacks                       int
	// ChampionVer is the fleet champion release version at run end
	// (fleet scope).
	ChampionVer int
	// PredErrMean is the serving untouched-memory model's mean
	// asymmetric prediction loss over all completed VMs; PredErrFinal
	// the same over the final rolling window — the end-of-run prediction
	// error. InsensErrMean mirrors it for the insensitivity score.
	PredErrMean, PredErrFinal float64
	InsensErrMean             float64
	// PromotionHistory lists every retrain/promote/demote event in cell
	// order, rendered one per line (cell scope).
	PromotionHistory []string
	// RolloutHistory lists the fleet release train's stage transitions —
	// retrain, canary-start, hold, promote, rollback, demote — in order,
	// rendered one per line (fleet scope). Byte-identical for any worker
	// count.
	RolloutHistory []string
	// ModelsJSON is the versioned model dump (one JSON array per cell)
	// when Model.Capture was set.
	ModelsJSON []json.RawMessage

	// EventLog is the full deterministic event log (cell order);
	// LogSHA256 is its hash — identical for every worker count.
	EventLog  string
	LogSHA256 string

	// Summary is the rendered one-screen report.
	Summary string
}

// RunFleet simulates an online Pond fleet: VM arrivals and departures
// flow through the live prediction/QoS control plane against the chosen
// pool topology, with failure scenarios injected mid-run. Cells fan out
// across the parallel engine; the event log and its hash depend only on
// the options and seed, never on worker count. For an incrementally
// driven run with live injections, use StartFleet.
func RunFleet(ctx context.Context, opts FleetOpts) (*FleetReport, error) {
	rep, err := fleet.Run(ctx, opts.fleetOptions())
	if err != nil {
		return nil, err
	}
	return newFleetReport(rep), nil
}

// newFleetReport maps the internal report to the public form, rendering
// the lifecycle, rollout, and planning histories one line each.
func newFleetReport(rep *fleet.Report) *FleetReport {
	history := make([]string, 0, len(rep.Lifecycle))
	for _, e := range rep.Lifecycle {
		history = append(history, fmt.Sprintf("[c%d t=%.3f] %s", e.Cell, e.AtSec, e))
	}
	rollout := make([]string, 0, len(rep.Rollout))
	for _, e := range rep.Rollout {
		rollout = append(rollout, fmt.Sprintf("[fleet t=%.3f] %s", e.AtSec, e))
	}
	plans := make([]string, 0, len(rep.PlanHistory))
	for _, e := range rep.PlanHistory {
		plans = append(plans, fmt.Sprintf("[c%d t=%.3f] %s", e.Cell, e.AtSec, e))
	}
	return &FleetReport{
		Topology:         rep.Options.Topology,
		TopologyDesc:     rep.TopologyDesc,
		Arrivals:         rep.Arrivals,
		Placed:           rep.Placed,
		Rejected:         rep.Rejected,
		Departed:         rep.Departed,
		BlastVMs:         rep.BlastVMs,
		Migrated:         rep.Migrated,
		QoSViolations:    rep.QoSViolations,
		Mitigations:      rep.Mitigations,
		AvgCoreUtil:      rep.AvgCoreUtil,
		AvgStrandedGB:    rep.AvgStrandedGB,
		PeakPoolUsedGB:   rep.PeakPoolUsedGB,
		PoolShare:        rep.PoolShare,
		FinalPoolGB:      rep.FinalPoolGB,
		DRAMSavedGB:      rep.DRAMSavedGB,
		Fallbacks:        rep.Fallbacks,
		PlanHistory:      plans,
		ModelScope:       rep.Options.ModelScope,
		Retrains:         rep.Retrains,
		Promotions:       rep.Promotions,
		Demotions:        rep.Demotions,
		Rollbacks:        rep.Rollbacks,
		ChampionVer:      rep.ChampionVer,
		PredErrMean:      rep.PredErrMean,
		PredErrFinal:     rep.PredErrFinal,
		InsensErrMean:    rep.InsensErrMean,
		PromotionHistory: history,
		RolloutHistory:   rollout,
		ModelsJSON:       rep.ModelDumps,
		EventLog:         rep.EventLog,
		LogSHA256:        rep.LogSHA256,
		Summary:          rep.String(),
	}
}
