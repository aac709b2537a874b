// Scheduler walkthrough: run Pond's full prediction-driven control plane
// over a synthetic cluster trace and report how memory was split between
// local and pool DRAM, and what the resulting DRAM requirement is for a
// 16-socket pool (a single-cluster slice of paper Figure 21).
package main

import (
	"fmt"
	"log"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/predict"
	"pond/internal/sim"
	"pond/internal/stats"
	"pond/internal/workload"
)

func main() {
	// A small synthetic cluster: 12 dual-socket servers over 30 days.
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 1
	cfg.Days = 30
	cfg.ServersPerCluster = 12
	trace := cluster.Generate(cfg)[0]
	fmt.Printf("trace: %d VMs on %d servers over %d days\n",
		len(trace.VMs), trace.Servers, trace.Days)

	// Train the untouched-memory model on an independent fleet.
	trainCfg := cfg
	trainCfg.Seed = 77
	trainCfg.Clusters = 4
	ds := predict.BuildUMDataset(cluster.Generate(trainCfg))
	um := predict.TrainGBMUntouched(ds.X, ds.TrueUntouched, 0.05, 1)

	// Train the latency-insensitivity forest on offline runs.
	pcfg := core.DefaultConfig()
	rf, threshold := predict.TrainBootstrapInsensitivity(workload.Ratio182, 0.05, 1)
	pcfg.InsensScoreThreshold = threshold
	pipeline := core.NewPipeline(pcfg, rf, um, nil)

	plan, st := pipeline.PlanTrace(&trace, stats.NewRand(9))
	fmt.Printf("decisions: %s\n", st)

	sched := sim.BuildSchedule(&trace)
	for _, k := range []int{8, 16, 32} {
		req := sim.RequiredDRAM(sched, k, plan)
		fmt.Printf("%2d-socket pool: required DRAM %.1f%% (%.1f%% saved)\n",
			k, req.RequiredPct(), req.SavingsPct())
	}

	baseline := sim.RequiredDRAM(sched, 16, sim.UniformPlan(len(trace.VMs), 0.15))
	fmt.Printf("static-15%% strawman at 16 sockets: %.1f%% required\n", baseline.RequiredPct())
	if st.MispredictFrac() > 1-pcfg.TP+0.01 {
		log.Printf("warning: misprediction rate %.2f%% above budget", 100*st.MispredictFrac())
	}
}
