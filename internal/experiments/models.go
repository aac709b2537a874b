package experiments

import (
	"sort"

	"pond/internal/cluster"
	"pond/internal/ml"
	"pond/internal/predict"
	"pond/internal/workload"
)

// Figure17Result carries the model curves of Figure 17, plus the
// logistic-regression baseline this reproduction adds.
type Figure17Result struct {
	RandomForest []predict.SensPoint
	DRAMBound    []predict.SensPoint
	MemoryBound  []predict.SensPoint
	Logistic     []predict.SensPoint
	Folds        int
}

// Figure17 evaluates the latency-insensitivity models at PDM=5% under the
// 182% latency level with workload-level cross validation. The paper uses
// 100 folds; benchmarks may pass fewer. The four model families
// cross-validate on independent engine shards.
func Figure17(folds, samplesPerWorkload int, opts ...Option) Figure17Result {
	rc := newRunConfig(opts)
	if folds <= 0 {
		folds = 100
	}
	if samplesPerWorkload <= 0 {
		samplesPerWorkload = 3
	}
	const pdm = 0.05
	kinds := []predict.ModelKind{
		predict.KindRandomForest, predict.KindDRAMBound,
		predict.KindMemoryBound, predict.KindLogistic,
	}
	curves := fanOut(rc, kinds, func(_ int, kind predict.ModelKind) []predict.SensPoint {
		return predict.SensitivityCurve(kind, workload.Ratio182, pdm, folds, samplesPerWorkload, rc.Seed)
	})
	return Figure17Result{
		RandomForest: curves[0],
		DRAMBound:    curves[1],
		MemoryBound:  curves[2],
		Logistic:     curves[3],
		Folds:        folds,
	}
}

// String renders the three curves side by side.
func (r Figure17Result) String() string {
	var t table
	t.title("Figure 17: latency-insensitivity model (FP rate vs % labeled insensitive)")
	t.row("%-12s %14s %12s %12s %12s", "insensitive", "RandomForest", "DRAM-bound", "mem-bound", "logistic")
	for i := range r.RandomForest {
		t.row("%10.0f%% %13.2f%% %11.2f%% %11.2f%% %11.2f%%",
			100*r.RandomForest[i].InsensitiveFrac,
			100*r.RandomForest[i].FPRate,
			100*r.DRAMBound[i].FPRate,
			100*r.MemoryBound[i].FPRate,
			100*r.Logistic[i].FPRate)
	}
	return t.String()
}

// Figure18Result carries the untouched-memory model curves.
type Figure18Result struct {
	GBM   []predict.UMPoint
	Fixed []predict.UMPoint
}

// Figure18 trains the quantile GBM on the first part of a synthetic fleet
// and compares its overprediction/untouched-memory tradeoff against the
// fixed-fraction strawman on the held-out remainder.
func Figure18(scale Scale, opts ...Option) Figure18Result {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	ds := predict.BuildUMDataset(cluster.Generate(cfg))
	cut := ds.SplitAtDay(cfg.Days * 2 / 3)
	m := predict.TrainGBMUntouched(ds.X[:cut], ds.TrueUntouched[:cut], 0.05, rc.Seed)
	eval := ds.Eval(cut, ds.Len())
	// Each margin of the GBM curve evaluates on its own engine shard; the
	// fixed-fraction strawman is cheap enough to stay serial.
	gbmPoints := fanOut(rc, predict.DefaultMargins(), func(_ int, margin float64) predict.UMPoint {
		return eval.Evaluate(m.WithMargin(margin))
	})
	// Render ascending by average untouched memory, like eval.Curve does.
	sort.Slice(gbmPoints, func(i, j int) bool { return gbmPoints[i].AvgUM < gbmPoints[j].AvgUM })
	return Figure18Result{
		GBM:   gbmPoints,
		Fixed: eval.FixedCurve([]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50}),
	}
}

// String renders the two curves.
func (r Figure18Result) String() string {
	var t table
	t.title("Figure 18: untouched-memory model (overpredictions vs average untouched)")
	t.row("GBM (1GB-aligned):")
	for _, p := range r.GBM {
		t.row("  avg untouched %5.1f%%  overpredictions %5.2f%%", 100*p.AvgUM, 100*p.OPRate)
	}
	t.row("Fixed amount / VM:")
	for _, p := range r.Fixed {
		t.row("  avg untouched %5.1f%%  overpredictions %5.2f%%", 100*p.AvgUM, 100*p.OPRate)
	}
	return t.String()
}

// Figure19Day is one day of the production-style rolling evaluation.
type Figure19Day struct {
	Day      int
	AvgUMPct float64
	OPPct    float64
}

// Figure19Result is the untouched-memory model in "production": nightly
// retraining on trailing data, evaluated on the next day's arrivals.
type Figure19Result struct {
	Days     []Figure19Day
	TargetOP float64
}

// Figure19 runs the rolling evaluation over the first 110 days of a
// synthetic 2022 (the trace is extended to 110 days). Retraining happens
// every retrainEvery days on all data seen so far.
func Figure19(scale Scale, retrainEvery int, opts ...Option) Figure19Result {
	rc := newRunConfig(opts)
	cfg := scale.genConfig(rc)
	cfg.Days = 110
	if retrainEvery <= 0 {
		retrainEvery = 7
	}
	ds := predict.BuildUMDataset(cluster.Generate(cfg))

	r := Figure19Result{TargetOP: 0.04}
	warmup := 14
	var days []int
	for day := warmup; day < cfg.Days; day += retrainEvery {
		days = append(days, day)
	}
	// Every retrain is independent — each trains on its own trailing
	// prefix and evaluates on the following window — so the nightly
	// pipeline fans out across retrain days.
	points := fanOut(rc, days, func(_ int, day int) *Figure19Day {
		trainEnd := ds.SplitAtDay(day)
		if trainEnd < 200 {
			return nil
		}
		model := predict.TrainGBMUntouched(ds.X[:trainEnd], ds.TrueUntouched[:trainEnd], r.TargetOP, rc.Seed+int64(day))
		evalEnd := ds.SplitAtDay(day + retrainEvery)
		if evalEnd <= trainEnd {
			return nil
		}
		p := ds.Eval(trainEnd, evalEnd).Evaluate(model)
		return &Figure19Day{Day: day, AvgUMPct: 100 * p.AvgUM, OPPct: 100 * p.OPRate}
	})
	for _, p := range points {
		if p != nil {
			r.Days = append(r.Days, *p)
		}
	}
	return r
}

// String renders the rolling series.
func (r Figure19Result) String() string {
	var t table
	t.title("Figure 19: untouched-memory model in production (rolling retrain)")
	t.row("%-6s %14s %16s (target OP %.0f%%)", "day", "avg untouched", "overpredictions", 100*r.TargetOP)
	for _, d := range r.Days {
		t.row("%-6d %13.1f%% %15.2f%%", d.Day, d.AvgUMPct, d.OPPct)
	}
	return t.String()
}

// Figure20Point is one point of the combined-model frontier.
type Figure20Point struct {
	PoolDRAMPct   float64
	MispredictPct float64
}

// Figure20Result carries the frontier at both latency levels.
type Figure20Result struct {
	At182 []Figure20Point
	At222 []Figure20Point
}

// Figure20 solves Eq. (1) across misprediction budgets at both levels,
// producing the tradeoff between average pool DRAM and scheduling
// mispredictions.
func Figure20(scale Scale, folds int, opts ...Option) Figure20Result {
	rc := newRunConfig(opts)
	if folds <= 0 {
		folds = 20
	}
	cfg := scale.genConfig(rc)
	ds := predict.BuildUMDataset(cluster.Generate(cfg))
	cut := ds.SplitAtDay(cfg.Days * 2 / 3)
	gbm := predict.TrainGBMUntouched(ds.X[:cut], ds.TrueUntouched[:cut], 0.05, rc.Seed)
	umCurve := ds.Eval(cut, ds.Len()).Curve(gbm, predict.DefaultMargins())

	budgets := []float64{0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05}
	// The two latency levels solve Eq. (1) independently: one shard each.
	frontiers := fanOut(rc, []float64{workload.Ratio182, workload.Ratio222},
		func(_ int, ratio float64) []Figure20Point {
			sens := predict.SensitivityCurve(predict.KindRandomForest, ratio, 0.05, folds, 2, rc.Seed)
			exceed := predict.ExceedProbGivenSpill(ratio, 0.05, predict.TypicalOverpredictionSpill)
			var out []Figure20Point
			for _, c := range predict.Frontier(sens, umCurve, exceed, budgets) {
				out = append(out, Figure20Point{
					PoolDRAMPct:   100 * c.PoolFrac,
					MispredictPct: 100 * c.MispredictFrac,
				})
			}
			return out
		})
	return Figure20Result{At182: frontiers[0], At222: frontiers[1]}
}

// String renders both frontiers.
func (r Figure20Result) String() string {
	var t table
	t.title("Figure 20: combined model (mispredictions vs average pool DRAM)")
	t.row("at 182%% (142ns):")
	for _, p := range r.At182 {
		t.row("  pool DRAM %5.1f%%  slowdown>PDM %5.2f%%", p.PoolDRAMPct, p.MispredictPct)
	}
	t.row("at 222%% (255ns):")
	for _, p := range r.At222 {
		t.row("  pool DRAM %5.1f%%  slowdown>PDM %5.2f%%", p.PoolDRAMPct, p.MispredictPct)
	}
	return t.String()
}

// AblationForestSize compares forest sizes on the Figure 17 task (the
// "RandomForest vs thresholds" ablation extended to capacity).
type AblationForestSizeResult struct {
	Trees  []int
	MeanFP []float64
}

// AblationForestSize sweeps ensemble sizes at a fixed operating point.
func AblationForestSize(folds int) AblationForestSizeResult {
	if folds <= 0 {
		folds = 6
	}
	ds := predict.BuildSensitivityDataset(workload.Ratio182, 0.05, 2, DefaultSeed)
	var r AblationForestSizeResult
	for _, nTrees := range []int{5, 20, 60} {
		cfg := ml.DefaultForestConfig()
		cfg.NTrees = nTrees
		cfg.Seed = DefaultSeed
		f := ml.FitForest(ds.X, ds.Insensitive, cfg)
		scores := make([]float64, len(ds.X))
		for i := range ds.X {
			scores[i] = f.PredictProb(ds.X[i])
		}
		thr := predict.ThresholdForLabelRate(scores, 0.3)
		fp := 0
		for i, s := range scores {
			if s >= thr && ds.Sensitive[i] {
				fp++
			}
		}
		r.Trees = append(r.Trees, nTrees)
		r.MeanFP = append(r.MeanFP, float64(fp)/float64(len(scores)))
	}
	return r
}

// String renders the sweep.
func (r AblationForestSizeResult) String() string {
	var t table
	t.title("Ablation: forest size vs false positives at 30% labeled insensitive")
	for i := range r.Trees {
		t.row("%3d trees: FP %.2f%%", r.Trees[i], 100*r.MeanFP[i])
	}
	return t.String()
}

// CounterAuditResult validates the Figure 12 model design: the trained
// insensitivity forest must draw its signal from the TMA memory-hierarchy
// counters, not the ~190 generic events.
type CounterAuditResult struct {
	Top []predict.CounterImportance
}

// CounterAudit trains the forest on offline runs and ranks its counters
// by permutation importance.
func CounterAudit(topK int) CounterAuditResult {
	if topK <= 0 {
		topK = 8
	}
	ds := predict.BuildSensitivityDataset(workload.Ratio182, 0.05, 3, DefaultSeed)
	m := predict.TrainForest(ds.X, ds.Insensitive, DefaultSeed)
	return CounterAuditResult{Top: predict.TopCounters(m, ds, topK, DefaultSeed)}
}

// String renders the counter ranking.
func (r CounterAuditResult) String() string {
	var t table
	t.title("Counter audit: permutation importance of the insensitivity forest (Figure 12)")
	for i, c := range r.Top {
		t.row("%2d. %-22s accuracy drop %.3f", i+1, c.Counter, c.Drop)
	}
	return t.String()
}
