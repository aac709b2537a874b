// Command pondplan is the offline capacity planner: it runs a
// telemetry-collection fleet simulation per topology at the static pool
// size, folds each cell's time-weighted pool-demand distribution into
// the internal/capacity planner, and prints the Pond-style DRAM-savings
// waterfall — candidate pool sizes with their QoS risk — selecting the
// minimal configuration that meets the target (§7's right-sizing
// argument, driven by observed demand instead of a fixed SKU).
//
//	pondplan
//	pondplan -topology flat,sharded,sparse -target-qos 0.01
//	pondplan -arrival trace -duration 4000 -pool 256
//
// The chosen size is what the elastic controller converges toward when
// the same workload runs under `pondfleet -elastic`; the waterfall shows
// how much QoS each further GB of shrink would cost. Deterministic for a
// fixed seed and byte-identical for any -workers value.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"pond/internal/capacity"
	"pond/internal/cliutil"
	"pond/internal/fleet"
)

// flags carries every pondplan flag value so validation is testable
// without exec'ing the binary.
type flags struct {
	topologies string
	arrival    string
	duration   float64
	hosts      int
	emcs       int
	poolGB     int
	degree     int
	cells      int
	noPredict  bool
	targetQoS  float64
	steps      int
	workers    int
	seed       int64
}

// validate rejects bad flag combinations with one readable error and
// returns the parsed topology list on success.
func validate(f flags) ([]string, error) {
	if err := cliutil.ValidateRun(f.workers, f.seed); err != nil {
		return nil, err
	}
	if f.duration <= 0 || math.IsNaN(f.duration) || math.IsInf(f.duration, 0) {
		return nil, fmt.Errorf("-duration must be a positive number, got %g", f.duration)
	}
	if f.cells <= 0 {
		return nil, fmt.Errorf("-cells must be positive, got %d", f.cells)
	}
	if f.poolGB <= 0 {
		return nil, fmt.Errorf("-pool must be positive, got %d", f.poolGB)
	}
	if !(f.targetQoS > 0 && f.targetQoS < 1) { // rejects NaN too
		return nil, fmt.Errorf("-target-qos must be in (0, 1), got %g", f.targetQoS)
	}
	if f.steps <= 0 {
		return nil, fmt.Errorf("-steps must be positive, got %d", f.steps)
	}
	return fleet.ParseTopologies(f.topologies)
}

func main() {
	var f flags
	flag.StringVar(&f.topologies, "topology", "flat", "comma-separated host-to-EMC topologies: flat, sharded, sparse")
	flag.StringVar(&f.arrival, "arrival", "poisson:rate=0.2:life=600", `arrival model: "poisson[:rate=R][:life=L]" or "trace"`)
	flag.Float64Var(&f.duration, "duration", 2000, "simulated telemetry horizon per cell (seconds)")
	flag.IntVar(&f.hosts, "hosts", 8, "hosts per cell")
	flag.IntVar(&f.emcs, "emcs", 4, "EMCs per cell")
	flag.IntVar(&f.poolGB, "pool", 512, "static pool capacity per cell (GB) — the provisioning baseline")
	flag.IntVar(&f.degree, "degree", 2, "per-host EMC connections under the sparse topology")
	flag.IntVar(&f.cells, "cells", 4, "independent pool groups (engine shards)")
	flag.BoolVar(&f.noPredict, "no-predictions", false, "disable the ML pipeline during telemetry collection")
	flag.Float64Var(&f.targetQoS, "target-qos", 0.01, "tolerated fraction of time pool demand may exceed the planned pool")
	flag.IntVar(&f.steps, "steps", 8, "waterfall rows between the static pool and the floor")
	flag.IntVar(&f.workers, "workers", 0, "engine worker pool size (0 = GOMAXPROCS); results are identical for any value")
	flag.Int64Var(&f.seed, "seed", 1, "root seed for every cell stream")
	flag.Parse()

	names, err := validate(f)
	if err != nil {
		cliutil.Fatal("pondplan", err)
	}

	arrival, err := fleet.ParseArrival(f.arrival)
	if err != nil {
		cliutil.Fatal("pondplan", err)
	}

	for _, name := range names {
		rep, err := fleet.Run(context.Background(), fleet.Options{
			Cluster: fleet.ClusterOpts{
				Topology:    name,
				PodDegree:   f.degree,
				Hosts:       f.hosts,
				EMCs:        f.emcs,
				PoolGB:      f.poolGB,
				Cells:       f.cells,
				DurationSec: f.duration,
			},
			Arrivals: arrival,
			Model:    fleet.ModelOpts{Disabled: f.noPredict},
			Engine:   fleet.EngineOpts{Workers: f.workers, Seed: f.seed},
		})
		if err != nil {
			cliutil.Fatal("pondplan", err)
		}
		fmt.Println(renderPlan(name, f, rep))
		fmt.Println()
	}
}

// renderPlan runs the waterfall over one telemetry run and renders the
// table with its context lines.
func renderPlan(name string, f flags, rep *fleet.Report) string {
	demands := make([]*capacity.Demand, 0, len(rep.Cells))
	var untouched50, untouched90 float64
	for _, c := range rep.Cells {
		demands = append(demands, c.Demand)
		untouched50 += c.UntouchedP50 / float64(len(rep.Cells))
		untouched90 += c.UntouchedP90 / float64(len(rep.Cells))
	}
	// The savings baseline is what the telemetry run actually
	// provisioned (the per-EMC share rounds down), not the requested
	// -pool figure — savings against capacity that never existed would
	// be phantom.
	staticGB := rep.FinalPoolGB / len(rep.Cells)
	plan := capacity.PlanWaterfall(name, staticGB, demands, capacity.PlanConfig{
		TargetQoS: f.targetQoS,
		MinPoolGB: f.emcs, // one slice per EMC so no pod goes dark
		Steps:     f.steps,
	})
	out := fmt.Sprintf("telemetry: arrival=%s duration=%gs placed=%d rejected=%d "+
		"peak-pool-used=%.0fGB stranded=%.1fGB untouched-p50=%.2f untouched-p90=%.2f\n",
		rep.Options.Arrivals, f.duration, rep.Placed, rep.Rejected,
		rep.PeakPoolUsedGB, rep.AvgStrandedGB, untouched50, untouched90)
	return out + plan.Table()
}
