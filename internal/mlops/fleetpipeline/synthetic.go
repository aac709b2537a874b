package fleetpipeline

import (
	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/mlops"
	"pond/internal/pmu"
	"pond/internal/predict"
	"pond/internal/stats"
	"pond/internal/workload"
)

// SyntheticRollout drives a standalone fleet pipeline — cells Collectors
// feeding one Manager — through barriers retrain boundaries with
// perCellPerBarrier (decision, outcome) pairs per cell between each:
// the staged-rollout hot path (shadow scoring, corpus pooling, canary
// bookkeeping, challenger training, verdicts) without the surrounding
// fleet loop. BenchmarkRolloutLoop and the CI benchmark gate time
// exactly this; the work is fixed and deterministic for a given
// (cells, barriers, perCellPerBarrier, cfg.Seed).
func SyntheticRollout(cells, barriers, perCellPerBarrier int, cfg Config) Counts {
	cfg.Cells = cells
	cfg = cfg.withDefaults()
	if cfg.BakeWindowSec <= 0 {
		cfg.BakeWindowSec = 2 // two barriers at the unit cadence below
	}
	bootstrap := predict.HistoryQuantileUM{}
	m := NewManager(cfg, bootstrap)
	cols := make([]*Collector, cells)
	for c := range cols {
		cols[c] = NewCollector(c, bootstrap, nil, 1.82, 0.05, cfg.OverPenalty, cfg.HoldoutWindow)
	}
	r := stats.NewRand(cfg.Seed)
	catalogue := workload.Catalogue()
	types := cluster.VMTypes()

	id := 0
	for b := 1; b <= barriers; b++ {
		for c, col := range cols {
			for i := 0; i < perCellPerBarrier; i++ {
				id++
				w := catalogue[id%len(catalogue)]
				base := 0.2 + 0.6*float64((id+c)%8)/8
				uf := stats.Clamp(base+r.Bounded(-0.05, 0.05), 0, 1)
				vm := cluster.VMRequest{
					ID:       cluster.VMID(id),
					Customer: cluster.CustomerID(1 + id%16),
					Type:     types[id%len(types)],
					GroundTruth: cluster.VMGroundTruth{
						UntouchedFrac: uf,
						Workload:      w,
					},
				}
				feats := []float64{
					vm.Type.MemoryGB, float64(vm.Type.Cores), vm.Type.GBPerCore(),
					1, 1, float64(id % 64), 5, base - 0.1, base, base, base + 0.05, base + 0.1,
				}
				col.ObserveDecision(vm, nil, feats, core.Decision{})
				col.ObserveOutcome(vm, pmu.Sample(w, r), true)
			}
		}
		rows := make([][]Row, cells)
		obs := make([][]mlops.Obs, cells)
		for c, col := range cols {
			rows[c], obs[c] = col.Drain()
		}
		if _, err := m.Tick(float64(b), rows, obs); err != nil {
			panic(err)
		}
		for c, col := range cols {
			col.Install(m.AssignmentFor(c))
		}
	}
	return m.Counts()
}
