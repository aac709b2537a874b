package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestQuantileMedianOdd(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}

func TestQuantileMedianEvenInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{9, 2, 7, 4}
	if got := Quantile(xs, 0); got != 2 {
		t.Fatalf("q0 = %v, want 2", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v, want 9", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on q > 1")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestPercentileMatchesQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Percentile(xs, 95) != Quantile(xs, 0.95) {
		t.Fatal("Percentile(95) != Quantile(0.95)")
	}
}

func TestMeanEmptyIsZero(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
}

func TestVarianceConstantIsZero(t *testing.T) {
	if got := Variance([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("variance = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEqual(got, 1.25, 1e-12) {
		t.Fatalf("variance = %v, want 1.25", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
}

func TestFractionBelowAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 3); got != 0.5 {
		t.Fatalf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionAbove(xs, 3); got != 0.25 {
		t.Fatalf("FractionAbove = %v, want 0.25", got)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	r := NewRand(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	s := Summarize(xs)
	if !(s.Min <= s.P5 && s.P5 <= s.P25 && s.P25 <= s.Median &&
		s.Median <= s.P75 && s.P75 <= s.P95 && s.P95 <= s.Max) {
		t.Fatalf("summary quantiles out of order: %+v", s)
	}
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary has N=%d", s.N)
	}
}

func TestCDFMonotone(t *testing.T) {
	xs := []float64{4, 1, 4, 2, 9}
	pts := CDF(xs)
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("CDF X not strictly increasing at %d: %+v", i, pts)
		}
		if pts[i].Frac <= pts[i-1].Frac {
			t.Fatalf("CDF Frac not increasing at %d: %+v", i, pts)
		}
	}
	if last := pts[len(pts)-1]; last.Frac != 1 {
		t.Fatalf("CDF does not end at 1: %+v", last)
	}
}

func TestCDFDuplicatesCollapse(t *testing.T) {
	pts := CDF([]float64{1, 1, 1, 2})
	if len(pts) != 2 {
		t.Fatalf("expected 2 CDF points, got %d", len(pts))
	}
	if pts[0].X != 1 || pts[0].Frac != 0.75 {
		t.Fatalf("duplicate collapse wrong: %+v", pts[0])
	}
}

func TestCDFEmpty(t *testing.T) {
	if pts := CDF(nil); pts != nil {
		t.Fatalf("CDF(nil) = %v", pts)
	}
}

func TestHistogramCountsSum(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9, 1.5, -3, 12}
	counts, edges := Histogram(xs, 0, 1, 4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram lost samples: %d != %d", total, len(xs))
	}
	if len(edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(edges))
	}
	// Out-of-range values clamp to end bins.
	if counts[0] < 1 || counts[3] < 2 {
		t.Fatalf("clamping failed: %v", counts)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRand(7)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = r.Float64()*10 - 5
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("Welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("Welford var %v != batch %v", w.Variance(), Variance(xs))
	}
	if w.N() != 500 {
		t.Fatalf("N = %d", w.N())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

func TestLerp(t *testing.T) {
	if Lerp(0, 10, 0.25) != 2.5 {
		t.Fatalf("Lerp = %v", Lerp(0, 10, 0.25))
	}
}

// Property: quantiles of any sample lie within [min, max] and are monotone
// in q.
func TestQuantilePropertyMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(a) / 255
		q2 := float64(b) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1 := Quantile(xs, q1)
		v2 := Quantile(xs, q2)
		lo, hi := Min(xs), Max(xs)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is always monotone in both coordinates.
func TestCDFPropertyMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].Frac < pts[i-1].Frac {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// TestShardSeedIsOrderIndependent pins the per-shard seeding every
// parallel fan-out relies on: the same (root, shard) always maps to the
// same seed, distinct shards to distinct seeds, and the root matters.
func TestShardSeedIsOrderIndependent(t *testing.T) {
	seen := map[int64]int{}
	for shard := 0; shard < 1000; shard++ {
		s := ShardSeed(42, shard)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: shards %d and %d both map to %d", prev, shard, s)
		}
		seen[s] = shard
	}
	if ShardSeed(42, 7) != ShardSeed(42, 7) {
		t.Fatal("ShardSeed not a pure function")
	}
	if ShardSeed(42, 7) == ShardSeed(43, 7) {
		t.Fatal("root seed ignored")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(42)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams look identical: %d/100 equal draws", same)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1, 2); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.LogNormal(2, 0.5)
	}
	// Median of lognormal is exp(mu).
	med := Quantile(xs, 0.5)
	if !almostEqual(med, math.Exp(2), 0.3) {
		t.Fatalf("lognormal median %v, want ~%v", med, math.Exp(2))
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(5)
	var w Welford
	for i := 0; i < 20000; i++ {
		w.Add(r.Exponential(3))
	}
	if !almostEqual(w.Mean(), 3, 0.15) {
		t.Fatalf("exponential mean %v, want ~3", w.Mean())
	}
}

func TestBoundedRange(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 1000; i++ {
		v := r.Bounded(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Bounded out of range: %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRand(8)
	hits := 0
	for i := 0; i < 20000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / 20000
	if !almostEqual(rate, 0.3, 0.02) {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRand(9)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	for i := 0; i < 30000; i++ {
		counts[r.Choice(weights)]++
	}
	if frac := float64(counts[2]) / 30000; !almostEqual(frac, 0.7, 0.02) {
		t.Fatalf("Choice heavy weight frac = %v, want ~0.7", frac)
	}
	if frac := float64(counts[0]) / 30000; !almostEqual(frac, 0.1, 0.02) {
		t.Fatalf("Choice light weight frac = %v, want ~0.1", frac)
	}
}

func TestChoicePanicsOnZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Choice([]float64{0, 0})
}

func TestBetaRange(t *testing.T) {
	r := NewRand(10)
	for i := 0; i < 2000; i++ {
		v := r.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of [0,1]: %v", v)
		}
	}
}

func TestBetaMean(t *testing.T) {
	r := NewRand(11)
	var w Welford
	for i := 0; i < 20000; i++ {
		w.Add(r.Beta(2, 2))
	}
	if !almostEqual(w.Mean(), 0.5, 0.02) {
		t.Fatalf("Beta(2,2) mean = %v, want ~0.5", w.Mean())
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRand(12)
	for i := 0; i < 2000; i++ {
		v := r.Pareto(1, 100, 1.2)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := NewRand(13)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Pareto(1, 1000, 1.1)
	}
	sort.Float64s(xs)
	med := QuantileSorted(xs, 0.5)
	p99 := QuantileSorted(xs, 0.99)
	if p99/med < 10 {
		t.Fatalf("Pareto tail too light: med=%v p99=%v", med, p99)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantIsZero(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant Pearson = %v", got)
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// y = x^3 is nonlinear but perfectly rank-correlated.
	xs := []float64{-2, -1, 0, 1, 2}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x * x
	}
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

func TestSpearmanHandlesTies(t *testing.T) {
	xs := []float64{1, 1, 2, 3}
	ys := []float64{1, 1, 2, 3}
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("tied Spearman = %v, want 1", got)
	}
}

func TestRanksAveraging(t *testing.T) {
	got := ranks([]float64{10, 20, 10})
	// Values 10,10 share ranks 1,2 -> 1.5; 20 gets rank 3.
	if got[0] != 1.5 || got[2] != 1.5 || got[1] != 3 {
		t.Fatalf("ranks = %v", got)
	}
}
