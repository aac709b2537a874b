// Package predict implements Pond's two prediction models (§4.4,
// Figures 12-14) and the combined optimizer of Eq. (1):
//
//   - The latency-insensitivity model: a RandomForest over core-PMU
//     counters that decides whether a VM's workload would stay within the
//     performance degradation margin (PDM) if placed entirely on pool
//     DRAM. Single-counter thresholds (memory-bound, DRAM-bound) serve as
//     the comparison heuristics of Figure 17.
//
//   - The untouched-memory model: a quantile GBM over VM metadata and
//     customer history that predicts how much of a VM's memory will never
//     be touched. A fixed-fraction strawman is the Figure 18 baseline.
//
//   - The combined optimizer that balances the two models' error budgets
//     (false positives FP and overpredictions OP) against the target
//     percentage of VMs (TP) that must meet the PDM.
package predict

import (
	"fmt"
	"sort"

	"pond/internal/ml"
	"pond/internal/pmu"
	"pond/internal/stats"
	"pond/internal/workload"
)

// Insensitivity scores how likely a workload is to be latency-insensitive
// from its PMU counters; higher means safer to place on pool DRAM.
type Insensitivity interface {
	Score(v pmu.Vector) float64
	Name() string
}

// SensitivityDataset is the Figure 12 training corpus: PMU counter
// samples from offline test runs labeled with the measured slowdown under
// pool memory at the given latency ratio.
type SensitivityDataset struct {
	X [][]float64
	// Insensitive is 1 when the workload's all-pool slowdown is within
	// the PDM, else 0.
	Insensitive []float64
	// Sensitive is the boolean ground truth (true = exceeds PDM).
	Sensitive []bool
	// WorkloadIdx maps each sample to its catalogue index, for
	// leakage-free workload-level splits.
	WorkloadIdx []int
}

// BuildSensitivityDataset samples each catalogue workload's counters k
// times and labels them against the PDM (a fraction, e.g. 0.05) at the
// given latency ratio.
func BuildSensitivityDataset(ratio, pdm float64, samplesPerWorkload int, seed int64) SensitivityDataset {
	if samplesPerWorkload <= 0 {
		samplesPerWorkload = 3
	}
	r := stats.NewRand(seed)
	var ds SensitivityDataset
	for wi, w := range workload.Catalogue() {
		sensitive := w.Slowdown(ratio, 1) > pdm
		label := 1.0
		if sensitive {
			label = 0
		}
		for k := 0; k < samplesPerWorkload; k++ {
			v := pmu.Sample(w, r)
			ds.X = append(ds.X, v.Features())
			ds.Insensitive = append(ds.Insensitive, label)
			ds.Sensitive = append(ds.Sensitive, sensitive)
			ds.WorkloadIdx = append(ds.WorkloadIdx, wi)
		}
	}
	return ds
}

// ForestModel is the paper's RandomForest classifier (§5).
type ForestModel struct {
	forest *ml.Forest
}

// TrainBootstrapInsensitivity trains the version-0 insensitivity
// forest a control plane starts from: three offline samples per
// catalogue workload at the given latency ratio and PDM, and the score
// threshold that labels the paper's ~30% of them insensitive.
func TrainBootstrapInsensitivity(ratio, pdm float64, seed int64) (*ForestModel, float64) {
	ds := BuildSensitivityDataset(ratio, pdm, 3, seed)
	rf := TrainForest(ds.X, ds.Insensitive, seed)
	return rf, ThresholdForLabelRate(DatasetScores(rf, ds), 0.30)
}

// TrainForest fits the insensitivity forest on a dataset subset.
func TrainForest(X [][]float64, insensitive []float64, seed int64) *ForestModel {
	cfg := ml.DefaultForestConfig()
	cfg.Seed = seed
	return &ForestModel{forest: ml.FitForest(X, insensitive, cfg)}
}

// Score returns the forest's insensitivity probability.
func (m *ForestModel) Score(v pmu.Vector) float64 { return m.forest.PredictProb(v.Features()) }

// Name identifies the model in figures.
func (m *ForestModel) Name() string { return "RandomForest" }

// Forest exposes the underlying ensemble for serialization
// (ml/serialize).
func (m *ForestModel) Forest() *ml.Forest { return m.forest }

// CounterThreshold is the heuristic baseline: label a workload
// insensitive when a single TMA counter is low. Score is 1-counter so
// that higher means more insensitive, like the forest.
type CounterThreshold struct {
	Counter int
}

// Score returns 1 - the counter value.
func (m CounterThreshold) Score(v pmu.Vector) float64 { return 1 - v[m.Counter] }

// Name identifies the heuristic by its counter.
func (m CounterThreshold) Name() string {
	switch m.Counter {
	case pmu.MemoryBound:
		return "Memory-Bound"
	case pmu.DRAMBound:
		return "DRAM-Bound"
	default:
		return fmt.Sprintf("Counter-%d", m.Counter)
	}
}

// SensPoint is one achievable operating point of an insensitivity model:
// labeling InsensitiveFrac of workloads insensitive costs FPRate false
// positives (both as fractions of all workloads) — Figure 17's axes.
type SensPoint struct {
	InsensitiveFrac float64
	FPRate          float64
}

// SensitivityCurve evaluates a model family across folds of
// workload-level train/test splits and returns the mean FP rate at each
// target labeled-insensitive fraction. This is the Figure 17 procedure:
// "100-fold validation based on randomly splitting into equal-sized
// training and testing datasets."
func SensitivityCurve(kind ModelKind, ratio, pdm float64, folds, samplesPerWorkload int, seed int64) []SensPoint {
	ds := BuildSensitivityDataset(ratio, pdm, samplesPerWorkload, seed)
	nWorkloads := maxIntSlice(ds.WorkloadIdx) + 1
	root := stats.NewRand(seed + 1000)

	targets := liTargets()
	sumFP := make([]float64, len(targets))
	for fold := 0; fold < folds; fold++ {
		r := root.Fork(int64(fold + 1))
		trainW, testW := ml.SplitIndices(nWorkloads, 0.5, r)
		trainSet := indexSet(trainW)
		testSet := indexSet(testW)

		var trX [][]float64
		var trY []float64
		var teScores []float64
		var teTruth []bool
		// Gather training rows first so the model never sees test
		// workloads.
		for i := range ds.X {
			if trainSet[ds.WorkloadIdx[i]] {
				trX = append(trX, ds.X[i])
				trY = append(trY, ds.Insensitive[i])
			}
		}
		model := buildModel(kind, trX, trY, seed+int64(fold))
		for i := range ds.X {
			if testSet[ds.WorkloadIdx[i]] {
				var v pmu.Vector
				copy(v[:], ds.X[i])
				teScores = append(teScores, model.Score(v))
				teTruth = append(teTruth, ds.Sensitive[i])
			}
		}
		for ti, target := range targets {
			sumFP[ti] += fpAtLabelRate(teScores, teTruth, target)
		}
	}
	out := make([]SensPoint, len(targets))
	for i, target := range targets {
		out[i] = SensPoint{InsensitiveFrac: target, FPRate: sumFP[i] / float64(folds)}
	}
	return out
}

// ModelKind selects the insensitivity model family for curve evaluation.
type ModelKind int

// Model families of Figure 17, plus a linear baseline.
const (
	KindRandomForest ModelKind = iota
	KindMemoryBound
	KindDRAMBound
	KindLogistic
)

// String names the model kind.
func (k ModelKind) String() string {
	switch k {
	case KindRandomForest:
		return "RandomForest"
	case KindMemoryBound:
		return "Memory-Bound"
	case KindDRAMBound:
		return "DRAM-Bound"
	case KindLogistic:
		return "Logistic"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

func buildModel(kind ModelKind, X [][]float64, y []float64, seed int64) Insensitivity {
	switch kind {
	case KindMemoryBound:
		return CounterThreshold{Counter: pmu.MemoryBound}
	case KindDRAMBound:
		return CounterThreshold{Counter: pmu.DRAMBound}
	case KindLogistic:
		cfg := ml.DefaultLogisticConfig()
		cfg.Seed = seed
		return &LogisticModel{model: ml.FitLogistic(X, y, cfg)}
	default:
		return TrainForest(X, y, seed)
	}
}

// LogisticModel is the linear baseline over the full counter set: better
// than single-counter thresholds, but its linear decision surface cannot
// isolate the store-bound deceivers the way the forest can.
type LogisticModel struct {
	model *ml.Logistic
}

// Score returns the model's insensitivity probability.
func (m *LogisticModel) Score(v pmu.Vector) float64 { return m.model.PredictProb(v.Features()) }

// Name identifies the baseline.
func (m *LogisticModel) Name() string { return "Logistic" }

// liTargets is the labeled-insensitive grid of Figure 17's x-axis.
func liTargets() []float64 {
	return []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60}
}

// fpAtLabelRate finds the score threshold that labels the target fraction
// insensitive and returns the resulting FP rate (sensitive workloads
// among those labeled, over all samples).
func fpAtLabelRate(scores []float64, sensitive []bool, target float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	// Threshold at the (1-target) quantile: everything above is labeled.
	thr := stats.QuantileSorted(sorted, 1-target)
	fp := 0
	for i, s := range scores {
		if s >= thr && sensitive[i] {
			fp++
		}
	}
	return float64(fp) / float64(len(scores))
}

// DatasetScores applies a model to every sample of the dataset.
func DatasetScores(m Insensitivity, ds SensitivityDataset) []float64 {
	out := make([]float64, len(ds.X))
	for i := range ds.X {
		var v pmu.Vector
		copy(v[:], ds.X[i])
		out[i] = m.Score(v)
	}
	return out
}

// ThresholdForLabelRate returns the score threshold that labels the
// target fraction of samples insensitive; the control plane uses it to
// realize the operating point the Eq. (1) optimizer picked.
func ThresholdForLabelRate(scores []float64, target float64) float64 {
	if len(scores) == 0 {
		return 1
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	return stats.QuantileSorted(sorted, 1-stats.Clamp(target, 0, 1))
}

func indexSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

func maxIntSlice(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
