package pond

import (
	"context"

	"pond/internal/fleet"
)

// FleetReport is the merged outcome of an online fleet run. It is the
// same type as fleet.Report, so the field docs live there; String
// renders the one-screen summary, and Histories the lifecycle, rollout,
// and planning histories one line each.
type FleetReport = fleet.Report

// RunFleet simulates an online Pond fleet: VM arrivals and departures
// flow through the live prediction/QoS control plane against the chosen
// pool topology, with failure scenarios injected mid-run. Cells fan out
// across the parallel engine; the event log and its hash depend only on
// the options and seed, never on worker count. For an incrementally
// driven run with live injections, use StartFleet.
func RunFleet(ctx context.Context, opts FleetOpts) (*FleetReport, error) {
	return fleet.Run(ctx, opts)
}
