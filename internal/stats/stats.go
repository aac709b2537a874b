// Package stats provides the small statistical toolkit shared by the Pond
// simulator, workload models, and experiment harness: percentiles, CDFs,
// histograms, running moments, and violin-plot summaries.
//
// All functions are deterministic and allocate at most O(n); quantile
// computation uses linear interpolation between order statistics, matching
// the convention of common plotting toolkits so that the reproduced figures
// line up with the paper's.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It does not modify xs.
// Quantile panics if xs is empty or q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for inputs already sorted ascending.
func QuantileSorted(sorted []float64, q float64) float64 {
	return QuantileSortedFunc(len(sorted), q, func(i int) float64 { return sorted[i] })
}

// QuantileSortedFunc is QuantileSorted over n ascending values read
// through at(0) … at(n-1), for callers whose sorted values are not laid
// out as one []float64. Both share this arithmetic, so they return the
// same bits for the same values.
func QuantileSortedFunc(n int, q float64, at func(i int) float64) float64 {
	if n == 0 {
		panic("stats: QuantileSorted of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range [0,1]", q))
	}
	if n == 1 {
		return at(0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs.
func Percentile(xs []float64, p float64) float64 {
	return Quantile(xs, p/100)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FractionBelow returns the fraction of xs strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAbove returns the fraction of xs strictly above threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary captures the five-number summary plus mean of a sample, the
// shape reported for each violin/box in the paper's figures.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs. It returns the zero Summary for an
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Min:    sorted[0],
		P5:     QuantileSorted(sorted, 0.05),
		P25:    QuantileSorted(sorted, 0.25),
		Median: QuantileSorted(sorted, 0.50),
		P75:    QuantileSorted(sorted, 0.75),
		P95:    QuantileSorted(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary as a single table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p5=%.2f p25=%.2f med=%.2f p75=%.2f p95=%.2f max=%.2f",
		s.N, s.Mean, s.Min, s.P5, s.P25, s.Median, s.P75, s.P95, s.Max)
}

// CDFPoint is one (x, cumulative fraction) sample of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the empirical CDF of xs as sorted points. Duplicate values
// collapse to the highest cumulative fraction, so the result is a proper
// step function with at most len(xs) points.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var points []CDFPoint
	n := float64(len(sorted))
	for i, x := range sorted {
		frac := float64(i+1) / n
		if len(points) > 0 && points[len(points)-1].X == x {
			points[len(points)-1].Frac = frac
			continue
		}
		points = append(points, CDFPoint{X: x, Frac: frac})
	}
	return points
}

// Histogram bins xs into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the first/last bin. It returns the
// per-bin counts and the bin edges (nbins+1 values).
func Histogram(xs []float64, lo, hi float64, nbins int) (counts []int, edges []float64) {
	if nbins <= 0 {
		panic("stats: Histogram requires nbins > 0")
	}
	if hi <= lo {
		panic("stats: Histogram requires hi > lo")
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		bin := int((x - lo) / width)
		if bin < 0 {
			bin = 0
		}
		if bin >= nbins {
			bin = nbins - 1
		}
		counts[bin]++
	}
	return counts, counts2edges(counts, edges)
}

// counts2edges exists only to keep the two return values in one expression;
// it returns edges unchanged.
func counts2edges(_ []int, edges []float64) []float64 { return edges }

// Welford accumulates mean and variance in one pass without storing
// samples; the simulator uses it for long event streams.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Pearson returns the linear correlation coefficient of xs and ys, or 0
// when either side is constant. It panics on length mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the rank correlation of xs and ys — Pearson over
// ranks, with ties sharing their average rank. The workload calibration
// uses it to check that slowdown orderings are preserved across latency
// levels.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

// ranks converts values to average ranks (1-based).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
