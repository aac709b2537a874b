package experiments

import (
	"sort"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/emc"
	"pond/internal/pool"
	"pond/internal/predict"
	"pond/internal/sim"
	"pond/internal/stats"
	"pond/internal/workload"
)

// Figure2aResult is the stranding-vs-utilization analysis.
type Figure2aResult struct {
	Buckets  []sim.UtilBucket
	Clusters int
	Days     int
}

// Figure2a generates the fleet, packs every cluster, and buckets the
// cluster-day stranding observations by scheduled-core percentage. Each
// cluster packs on its own engine shard; the bucket merge runs serially
// in cluster order.
func Figure2a(scale Scale, opts ...Option) Figure2aResult {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	traces := cluster.Generate(cfg)
	series := fanOut(rc, traces, func(i int, _ cluster.Trace) []sim.StrandingSample {
		return sim.StrandingSeries(sim.BuildSchedule(&traces[i]))
	})
	return Figure2aResult{
		Buckets:  sim.BucketStranding(series),
		Clusters: cfg.Clusters,
		Days:     cfg.Days,
	}
}

// String renders the Figure 2a table.
func (r Figure2aResult) String() string {
	var t table
	t.title("Figure 2a: stranding vs scheduled CPU cores")
	t.row("(%d clusters x %d days)", r.Clusters, r.Days)
	t.row("%-10s %6s %8s %8s %8s %8s", "scheduled", "days", "mean", "p5", "p95", "max")
	for _, b := range r.Buckets {
		t.row("%8d%% %6d %7.1f%% %7.1f%% %7.1f%% %7.1f%%",
			b.ScheduledPct, b.N, b.MeanStranded, b.P5Stranded, b.P95Stranded, b.MaxStranded)
	}
	return t.String()
}

// Figure2bRack is one rack's daily stranding series.
type Figure2bRack struct {
	Name     string
	ShockDay int
	Stranded []float64 // percent per day
}

// Figure2bResult is the stranding-over-time view.
type Figure2bResult struct {
	Racks []Figure2bRack
}

// Figure2b picks 8 racks (clusters), preferring ones with a workload
// shock, and reports their daily stranding. Racks pack in parallel.
func Figure2b(scale Scale, opts ...Option) Figure2bResult {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	traces := cluster.Generate(cfg)
	sort.SliceStable(traces, func(i, j int) bool {
		return traces[i].ShockDay > traces[j].ShockDay
	})
	if len(traces) > 8 {
		traces = traces[:8]
	}
	racks := fanOut(rc, traces, func(i int, _ cluster.Trace) Figure2bRack {
		samples := sim.StrandingSeries(sim.BuildSchedule(&traces[i]))
		rack := Figure2bRack{Name: traces[i].Name, ShockDay: traces[i].ShockDay}
		for _, s := range samples {
			rack.Stranded = append(rack.Stranded, 100*s.StrandedMemFrac)
		}
		return rack
	})
	return Figure2bResult{Racks: racks}
}

// String renders a compact weekly view per rack.
func (r Figure2bResult) String() string {
	var t table
	t.title("Figure 2b: stranding over time (8 racks, weekly means)")
	for _, rack := range r.Racks {
		weeks := ""
		for w := 0; w+7 <= len(rack.Stranded); w += 7 {
			weeks += sprintf(" %5.1f", stats.Mean(rack.Stranded[w:w+7]))
		}
		shock := ""
		if rack.ShockDay > 0 {
			shock = sprintf("  (shock day %d)", rack.ShockDay)
		}
		t.row("%-12s%s%s", rack.Name, weeks, shock)
	}
	return t.String()
}

// Figure3Row is required DRAM for one (pool size, fixed fraction) cell.
type Figure3Row struct {
	PoolSockets int
	PoolFrac    float64
	RequiredPct float64
}

// Figure3Result is the pool-size impact table.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3 computes required DRAM across pool sizes at fixed 10/30/50%
// pool allocations. Packing fans out per cluster; each (fraction, pool
// size) cell of the table is then its own engine shard aggregating the
// clusters in deterministic order.
func Figure3(scale Scale, opts ...Option) Figure3Result {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	traces := cluster.Generate(cfg)
	schedules := fanOut(rc, traces, func(i int, _ cluster.Trace) sim.Schedule {
		return sim.BuildSchedule(&traces[i])
	})
	type cell struct {
		frac float64
		k    int
	}
	var cells []cell
	for _, frac := range []float64{0.10, 0.30, 0.50} {
		for _, k := range []int{2, 8, 16, 32, 64} {
			cells = append(cells, cell{frac: frac, k: k})
		}
	}
	rows := fanOut(rc, cells, func(_ int, c cell) Figure3Row {
		var agg sim.Requirement
		for i := range schedules {
			plan := sim.UniformPlan(len(traces[i].VMs), c.frac)
			agg.Add(sim.RequiredDRAM(schedules[i], c.k, plan))
		}
		return Figure3Row{PoolSockets: c.k, PoolFrac: c.frac, RequiredPct: agg.RequiredPct()}
	})
	return Figure3Result{Rows: rows}
}

// String renders the Figure 3 table.
func (r Figure3Result) String() string {
	var t table
	t.title("Figure 3: required DRAM vs pool size at fixed pool percentages")
	t.row("%-10s %8s %12s", "pool frac", "sockets", "required")
	for _, row := range r.Rows {
		t.row("%9.0f%% %8d %11.1f%%", 100*row.PoolFrac, row.PoolSockets, row.RequiredPct)
	}
	return t.String()
}

// Figure21Row is one policy's required DRAM at one pool size.
type Figure21Row struct {
	Policy      string
	PoolSockets int
	RequiredPct float64
}

// Figure21Result is the end-to-end savings evaluation.
type Figure21Result struct {
	Rows []Figure21Row
	// Stats per policy (aggregated over clusters).
	Pond182Stats core.PlanStats
	Pond222Stats core.PlanStats
}

// trainedPipeline builds a Pond pipeline whose models were trained on an
// independent fleet (different seed), choosing the Eq. (1) operating
// point for PDM=5%, TP=98%.
// umTraining is the latency-level-independent half of pipeline training:
// the training fleet, its dataset, and the untouched-memory GBM. Both
// latency levels share one instance (the UM model does not depend on the
// pool ratio), halving Figure 21's training cost.
type umTraining struct {
	days int
	ds   predict.UMDataset
	gbm  *predict.GBMUntouched
}

func trainUM(scale Scale, rc RunConfig) umTraining {
	trainCfg := scale.genConfig(rc)
	trainCfg.Seed = rc.Seed + 1000
	trainTraces := cluster.Generate(trainCfg)
	ds := predict.BuildUMDataset(trainTraces)
	return umTraining{
		days: trainCfg.Days,
		ds:   ds,
		gbm:  predict.TrainGBMUntouched(ds.X, ds.TrueUntouched, 0.05, rc.Seed),
	}
}

func trainedPipeline(um umTraining, ratio float64, rc RunConfig) *core.Pipeline {
	ds, gbm := um.ds, um.gbm

	// Sensitivity model and curves for the optimizer.
	sensDS := predict.BuildSensitivityDataset(ratio, 0.05, 3, rc.Seed)
	rf := predict.TrainForest(sensDS.X, sensDS.Insensitive, rc.Seed)
	sensCurve := predict.SensitivityCurve(predict.KindRandomForest, ratio, 0.05, 6, 2, rc.Seed)

	// UM curve with margins tracked so the chosen point is realizable.
	// Serial on purpose: trainedPipeline already runs inside an engine
	// shard (one per latency ratio), and a nested fan-out would exceed
	// the configured Workers bound.
	margins := predict.DefaultMargins()
	eval := ds.Eval(ds.SplitAtDay(um.days*2/3), ds.Len())
	umPoints := make([]predict.UMPoint, len(margins))
	for i, m := range margins {
		umPoints[i] = eval.Evaluate(gbm.WithMargin(m))
	}

	exceed := predict.ExceedProbGivenSpill(ratio, 0.05, predict.TypicalOverpredictionSpill)
	choice, ok := predict.Optimize(sensCurve, umPoints, 0.98, exceed, 0.01)
	cfg := core.DefaultConfig()
	cfg.Ratio = ratio
	chosenUM := gbm
	if ok {
		cfg.InsensScoreThreshold = predict.ThresholdForLabelRate(
			predict.DatasetScores(rf, sensDS), choice.Sens.InsensitiveFrac)
		for i, p := range umPoints {
			if p == choice.UM {
				chosenUM = gbm.WithMargin(margins[i])
				break
			}
		}
	}
	return core.NewPipeline(cfg, rf, chosenUM, nil)
}

// Figure21 runs the full pipeline — trace generation, packing, model
// training, scheduling decisions, QoS mitigation — and reports required
// DRAM versus pool size for Pond at both latency levels and the static
// 15% strawman.
func Figure21(scale Scale, opts ...Option) Figure21Result {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	traces := cluster.Generate(cfg)
	schedules := fanOut(rc, traces, func(i int, _ cluster.Trace) sim.Schedule {
		return sim.BuildSchedule(&traces[i])
	})

	// The UM model is shared; the two latency levels then train their
	// sensitivity models on independent shards.
	um := trainUM(scale, rc)
	pipes := fanOut(rc, []float64{workload.Ratio182, workload.Ratio222},
		func(_ int, ratio float64) *core.Pipeline {
			return trainedPipeline(um, ratio, rc)
		})
	pond182, pond222 := pipes[0], pipes[1]

	// Per-cluster planning RNG seeds are drawn serially from the root
	// stream (the exact draws the serial Fork loop made), then the
	// control-plane replay of each cluster fans out.
	r := stats.NewRand(rc.Seed + 7)
	type planSeeds struct{ s182, s222 int64 }
	seeds := make([]planSeeds, len(traces))
	for i := range traces {
		seeds[i] = planSeeds{s182: r.ForkSeed(int64(i)), s222: r.ForkSeed(int64(i + 1000))}
	}
	type planned struct {
		p182, p222 sim.SplitPlan
		s182, s222 core.PlanStats
	}
	plannedByCluster := fanOut(rc, seeds, func(i int, s planSeeds) planned {
		var p planned
		p.p182, p.s182 = pond182.PlanTrace(&traces[i], stats.NewRand(s.s182))
		p.p222, p.s222 = pond222.PlanTrace(&traces[i], stats.NewRand(s.s222))
		return p
	})

	type policy struct {
		name  string
		plans []sim.SplitPlan
		stats *core.PlanStats
	}
	policies := []policy{
		{name: "Pond@182%", stats: &core.PlanStats{}},
		{name: "Pond@222%", stats: &core.PlanStats{}},
		{name: "Static 15%"},
	}
	for i, p := range plannedByCluster {
		addStats(policies[0].stats, p.s182)
		addStats(policies[1].stats, p.s222)
		policies[0].plans = append(policies[0].plans, p.p182)
		policies[1].plans = append(policies[1].plans, p.p222)
		policies[2].plans = append(policies[2].plans, sim.UniformPlan(len(traces[i].VMs), 0.15))
	}

	// One shard per (pool size, policy) cell of the table.
	type cell struct {
		k   int
		pol int
	}
	var cells []cell
	for _, k := range []int{2, 8, 16, 32, 64} {
		for pol := range policies {
			cells = append(cells, cell{k: k, pol: pol})
		}
	}
	rows := fanOut(rc, cells, func(_ int, c cell) Figure21Row {
		var agg sim.Requirement
		for i := range schedules {
			agg.Add(sim.RequiredDRAM(schedules[i], c.k, policies[c.pol].plans[i]))
		}
		return Figure21Row{
			Policy:      policies[c.pol].name,
			PoolSockets: c.k,
			RequiredPct: agg.RequiredPct(),
		}
	})

	out := Figure21Result{Rows: rows}
	out.Pond182Stats = *policies[0].stats
	out.Pond222Stats = *policies[1].stats
	return out
}

func addStats(dst *core.PlanStats, s core.PlanStats) {
	w := float64(dst.VMs)
	dst.PoolGBShare = (dst.PoolGBShare*w + s.PoolGBShare*float64(s.VMs)) / (w + float64(s.VMs))
	dst.VMs += s.VMs
	dst.AllPoolN += s.AllPoolN
	dst.ZNUMAN += s.ZNUMAN
	dst.AllLocalN += s.AllLocalN
	dst.ExceedPDMN += s.ExceedPDMN
	dst.MitigatedN += s.MitigatedN
}

// String renders the Figure 21 table.
func (r Figure21Result) String() string {
	var t table
	t.title("Figure 21: memory savings under performance constraints (PDM=5%, TP=98%)")
	t.row("%-12s %10s %12s", "policy", "sockets", "required")
	for _, row := range r.Rows {
		t.row("%-12s %10d %11.1f%%", row.Policy, row.PoolSockets, row.RequiredPct)
	}
	t.row("Pond@182%% pipeline: %s", r.Pond182Stats)
	t.row("Pond@222%% pipeline: %s", r.Pond222Stats)
	return t.String()
}

// Finding10Result is the offlining-rate distribution across VM starts.
type Finding10Result struct {
	Starts        int
	ZeroRateFrac  float64
	P9999RateGBs  float64
	P99999RateGBs float64
	MaxRateGBs    float64
}

// replayLeases drives a bare Pool Manager over one EMC of poolGB with a
// trace's VM starts and stops: VM i leases 30% of its memory, rounded
// down to whole GB, from host i%64 at arrival and releases it
// asynchronously at departure; a VM whose share rounds to 0 leases
// nothing. start sees each lease request's result, where an error means
// the pool was exhausted and the VM runs all-local. It returns the
// manager.
func replayLeases(vms []cluster.VMRequest, poolGB int, seed int64, start func(pool.AddResult, error)) *pool.Manager {
	device := emc.NewDevice("emc0", poolGB, 64)
	pm := pool.NewManager([]*emc.Device{device}, stats.NewRand(seed))
	type lease struct {
		end  float64
		host emc.HostID
		refs []pool.SliceRef
	}
	var live []lease
	for i := range vms {
		vm := &vms[i]
		now := vm.ArrivalSec
		// Expire departed leases first (asynchronous release).
		keep := live[:0]
		for _, l := range live {
			if l.end <= now {
				pm.ReleaseCapacity(l.host, l.refs, l.end)
			} else {
				keep = append(keep, l)
			}
		}
		live = keep
		gb := int(vm.Type.MemoryGB * 0.30)
		if gb == 0 {
			continue
		}
		h := emc.HostID(i % 64)
		res, err := pm.AddCapacity(h, gb, now)
		start(res, err)
		if err == nil {
			live = append(live, lease{end: vm.DepartureSec(), host: h, refs: res.Slices})
		}
	}
	return pm
}

// Finding10 drives a Pool Manager with a trace-derived start/stop load
// (static 30% pool allocations) and measures the offline throughput each
// VM start depended on.
func Finding10(scale Scale, opts ...Option) Finding10Result {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	cfg.Clusters = 1
	tr := cluster.Generate(cfg)[0]

	// Pool sized like a 16-socket Pond group with a ~30% provision.
	pm := replayLeases(tr.VMs, int(tr.TotalClusterMemGB()*0.30), rc.Seed, func(pool.AddResult, error) {})

	rates := pm.StartRates()
	sort.Float64s(rates)
	zero := 0
	for _, x := range rates {
		if x == 0 {
			zero++
		}
	}
	r := Finding10Result{Starts: len(rates)}
	if len(rates) > 0 {
		r.ZeroRateFrac = float64(zero) / float64(len(rates))
		r.P9999RateGBs = stats.QuantileSorted(rates, 0.9999)
		r.P99999RateGBs = stats.QuantileSorted(rates, 0.99999)
		r.MaxRateGBs = rates[len(rates)-1]
	}
	return r
}

// String renders the Finding 10 summary.
func (r Finding10Result) String() string {
	var t table
	t.title("Finding 10: offlining speed required by VM starts")
	t.row("starts=%d  buffer-satisfied=%.3f%%  p99.99=%.2f GB/s  p99.999=%.2f GB/s  max=%.2f GB/s",
		r.Starts, 100*r.ZeroRateFrac, r.P9999RateGBs, r.P99999RateGBs, r.MaxRateGBs)
	return t.String()
}

// AblationAsyncReleaseResult compares VM starts under different pool
// headroom levels, quantifying why the asynchronous-release buffer
// matters: an undersized pool forces starts to fall back to all-local
// memory (no savings) or wait for offlining.
type AblationAsyncReleaseResult struct {
	BufferFactor []float64
	WaitFrac     []float64 // fraction of starts that had to wait on offlining
	FallbackFrac []float64 // fraction of starts that found the pool exhausted
}

// AblationAsyncRelease shrinks the pool from comfortable to tight and
// measures how often VM starts block on offlining. The headroom levels
// replay independently, one engine shard each.
func AblationAsyncRelease(scale Scale, opts ...Option) AblationAsyncReleaseResult {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	cfg.Clusters = 1
	tr := cluster.Generate(cfg)[0]

	factors := []float64{0.02, 0.05, 0.10, 0.30}
	type outcome struct{ waitFrac, fallbackFrac float64 }
	outcomes := fanOut(rc, factors, func(_ int, factor float64) outcome {
		waited, fallback, total := 0, 0, 0
		replayLeases(tr.VMs, int(tr.TotalClusterMemGB()*factor), rc.Seed, func(res pool.AddResult, err error) {
			total++
			switch {
			case err != nil:
				fallback++ // pool exhausted: the VM runs all-local
			case res.WaitedSec > 0:
				waited++
			}
		})
		if total == 0 {
			total = 1
		}
		return outcome{
			waitFrac:     float64(waited) / float64(total),
			fallbackFrac: float64(fallback) / float64(total),
		}
	})

	var r AblationAsyncReleaseResult
	for i, o := range outcomes {
		r.BufferFactor = append(r.BufferFactor, factors[i])
		r.WaitFrac = append(r.WaitFrac, o.waitFrac)
		r.FallbackFrac = append(r.FallbackFrac, o.fallbackFrac)
	}
	return r
}

// String renders the ablation.
func (r AblationAsyncReleaseResult) String() string {
	var t table
	t.title("Ablation: pool headroom vs VM starts blocked or turned away")
	for i := range r.BufferFactor {
		t.row("pool = %4.0f%% of cluster DRAM: %.3f%% waited on offlining, %.2f%% pool-exhausted",
			100*r.BufferFactor[i], 100*r.WaitFrac[i], 100*r.FallbackFrac[i])
	}
	return t.String()
}

func sprintf(format string, args ...any) string {
	var t table
	t.row(format, args...)
	s := t.String()
	return s[:len(s)-1]
}
