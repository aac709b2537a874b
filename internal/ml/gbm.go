package ml

import (
	"fmt"
	"sort"

	"pond/internal/stats"
)

// GBMConfig parameterizes gradient-boosted quantile regression.
type GBMConfig struct {
	NTrees       int
	LearningRate float64
	Tree         TreeConfig
	// Quantile is the target quantile q in (0,1). Pond predicts a *low*
	// quantile of untouched memory (e.g. q = 0.05) so that the true
	// untouched amount exceeds the prediction for ~95% of VMs — the
	// overprediction-rate knob of §4.4.
	Quantile float64
	Seed     int64
}

// DefaultGBMConfig mirrors LightGBM-ish defaults at simulator scale.
func DefaultGBMConfig() GBMConfig {
	return GBMConfig{
		NTrees:       80,
		LearningRate: 0.1,
		Tree: TreeConfig{
			MaxDepth:    5,
			MinLeaf:     20,
			FeatureFrac: 0.8,
			Criterion:   Variance,
		},
		Quantile: 0.05,
		Seed:     1,
	}
}

// GBM is a fitted gradient-boosted quantile regressor.
type GBM struct {
	init     float64
	lr       float64
	quantile float64
	trees    []*Tree
}

// FitGBM trains the model with pinball (quantile) loss: each stage fits a
// tree to the loss gradient, then re-fits every leaf to the q-quantile of
// its residuals — the standard quantile-boosting leaf adjustment.
func FitGBM(X [][]float64, y []float64, cfg GBMConfig) *GBM {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("ml: bad training set: %d rows, %d targets", len(X), len(y)))
	}
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		panic(fmt.Sprintf("ml: quantile %v outside (0,1)", cfg.Quantile))
	}
	if cfg.NTrees <= 0 {
		cfg.NTrees = 80
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	root := stats.NewRand(cfg.Seed)

	m := &GBM{
		init:     stats.Quantile(y, cfg.Quantile),
		lr:       cfg.LearningRate,
		quantile: cfg.Quantile,
	}
	// Every stage trains on the same rows, so one presort of the feature
	// columns serves the whole ensemble.
	ps := NewPresort(X)
	scratch := &denseScratch{}
	treeCfg := cfg.Tree
	if treeCfg.MaxDepth <= 0 {
		treeCfg.MaxDepth = 6
	}
	if treeCfg.MinLeaf <= 0 {
		treeCfg.MinLeaf = 1
	}
	if treeCfg.FeatureFrac <= 0 || treeCfg.FeatureFrac > 1 {
		treeCfg.FeatureFrac = 1
	}
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = m.init
	}
	grad := make([]float64, len(y))
	leafOf := make([]int, len(y))
	scratch.leafOf = leafOf
	for stage := 0; stage < cfg.NTrees; stage++ {
		r := root.Fork(int64(stage + 1))
		// Pinball-loss gradient: q when under-predicting, q-1 when
		// over-predicting.
		for i := range y {
			if y[i] > pred[i] {
				grad[i] = cfg.Quantile
			} else {
				grad[i] = cfg.Quantile - 1
			}
		}
		tree := fitPresorted(X, grad, treeCfg, r, ps, scratch)

		// Leaf adjustment: the pinball-optimal constant per leaf is the
		// q-quantile of the residuals y - pred landing in that leaf. The
		// fit recorded each row's leaf id as its leaves were made, so no
		// per-row tree traversal is needed here.
		residuals := make([][]float64, tree.Leaves())
		for i := range y {
			residuals[leafOf[i]] = append(residuals[leafOf[i]], y[i]-pred[i])
		}
		for leaf, res := range residuals {
			if len(res) == 0 {
				tree.SetLeafValue(leaf, 0)
				continue
			}
			sort.Float64s(res)
			tree.SetLeafValue(leaf, stats.QuantileSorted(res, cfg.Quantile))
		}
		for i := range pred {
			pred[i] += cfg.LearningRate * tree.LeafValue(leafOf[i])
		}
		m.trees = append(m.trees, tree)
	}
	return m
}

// Predict returns the fitted conditional quantile for one row.
func (m *GBM) Predict(x []float64) float64 {
	out := m.init
	for _, t := range m.trees {
		out += m.lr * t.Predict(x)
	}
	return out
}

// Quantile returns the target quantile the model was fit for.
func (m *GBM) Quantile() float64 { return m.quantile }

// Stages returns the number of boosting stages.
func (m *GBM) Stages() int { return len(m.trees) }

// Features returns the input width the model reads (0 with no stages).
func (m *GBM) Features() int { return width(m.trees) }
