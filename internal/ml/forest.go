package ml

import (
	"fmt"

	"pond/internal/stats"
)

// ForestConfig parameterizes a random forest.
type ForestConfig struct {
	NTrees int
	Tree   TreeConfig
	Seed   int64
}

// DefaultForestConfig mirrors scikit-learn's defaults at a scale suited to
// hundreds of training rows: 60 trees, sqrt-features per split.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		NTrees: 60,
		Tree: TreeConfig{
			MaxDepth:    8,
			MinLeaf:     2,
			FeatureFrac: 0.08, // ~sqrt(200)/200
			Criterion:   Gini,
		},
		Seed: 1,
	}
}

// Forest is a bagged ensemble of CART trees. For 0/1 targets its
// prediction is the fraction of trees voting 1 — a probability usable
// with a decision threshold, which is how the latency-insensitivity model
// trades label rate against false positives (Figure 17).
type Forest struct {
	trees []*Tree
}

// FitForest trains the ensemble with bootstrap sampling.
//
// The training matrix is transposed to feature columns exactly once;
// each tree then grows over its bootstrap *index* list through the
// grower's row indirection instead of copying and re-transposing
// resampled rows. The per-tree RNG streams (one fork, n index draws,
// then the growth draws) are identical to a row-copying bootstrap, so
// fitted forests are unchanged.
func FitForest(X [][]float64, y []float64, cfg ForestConfig) *Forest {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("ml: bad training set: %d rows, %d targets", len(X), len(y)))
	}
	if cfg.NTrees <= 0 {
		cfg.NTrees = 60
	}
	root := stats.NewRand(cfg.Seed)
	f := &Forest{trees: make([]*Tree, cfg.NTrees)}
	n := len(X)
	if cfg.Tree.FeatureFrac <= 0 || cfg.Tree.FeatureFrac >= sparseFracThreshold {
		// Dense-strategy trees presort per tree; fall back to row copies.
		for t := range f.trees {
			r := root.Fork(int64(t + 1))
			bx := make([][]float64, n)
			by := make([]float64, n)
			for i := 0; i < n; i++ {
				j := r.Intn(n)
				bx[i] = X[j]
				by[i] = y[j]
			}
			f.trees[t] = FitTree(bx, by, cfg.Tree, r)
		}
		return f
	}
	cols := columns(X)
	boot := make([]int32, n)
	by := make([]float64, n)
	g := newSparseGrower(cols, boot, by, cfg.Tree)
	g.buildRanks(y)
	for t := range f.trees {
		r := root.Fork(int64(t + 1))
		for i := 0; i < n; i++ {
			j := r.Intn(n)
			boot[i] = int32(j)
			by[i] = y[j]
		}
		f.trees[t] = g.fit(n, r)
	}
	return f
}

// PredictProb returns the ensemble mean output for one row.
func (f *Forest) PredictProb(x []float64) float64 {
	var sum float64
	for _, t := range f.trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.trees))
}

// Predict applies a decision threshold to the probability.
func (f *Forest) Predict(x []float64, threshold float64) bool {
	return f.PredictProb(x) >= threshold
}

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// Features returns the input width the ensemble reads.
func (f *Forest) Features() int { return width(f.trees) }
