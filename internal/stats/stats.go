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
	"math/bits"
	"slices"
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
	lo, hi, frac := quantileRanks(n, q)
	if lo == hi {
		return at(lo)
	}
	return lerp(at(lo), at(hi), frac)
}

// quantileRanks returns the ranks (0-based, ascending) of the two order
// statistics the q-th quantile of n > 0 values interpolates between, and
// the weight of the upper one.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range [0,1]", q))
	}
	if n == 1 {
		return 0, 0, 0
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// lerp is the one interpolation between neighbouring order statistics.
func lerp(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// QuantileSelect returns, bit for bit, what sort.Float64s followed by
// QuantileSorted returns for xs, but finds only the two order statistics
// the interpolation reads, in expected O(n). It reorders xs in place.
//
// Without NaN or -0 in xs, values that compare equal have equal bits, so
// every arrangement puts the same bits at each rank and selection agrees
// with the sort. A NaN or a -0 makes the answer depend on where the sort
// itself leaves NaNs (by payload) or -0 against +0, so then xs is sorted
// with sort.Float64s. Selection sorts what is left of its window after
// about 2·log2(n) partition rounds, which bounds the worst case at
// O(n log n).
func QuantileSelect(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: QuantileSelect of empty slice")
	}
	lo, hi, frac := quantileRanks(len(xs), q)
	for _, x := range xs {
		if x != x || math.Float64bits(x) == 1<<63 {
			sort.Float64s(xs)
			return QuantileSorted(xs, q)
		}
	}
	selectRank(xs, lo, 2*bits.Len(uint(len(xs))))
	if lo == hi {
		return xs[lo]
	}
	// hi is lo+1, and selection left nothing below xs[lo] after it.
	next := xs[hi]
	for _, x := range xs[hi+1:] {
		next = min(next, x)
	}
	return lerp(xs[lo], next, frac)
}

// selectRank reorders xs, which holds no NaN, so that xs[k] is its k-th
// smallest value (0-based) with nothing larger before it and nothing
// smaller after it: Hoare partitions around a median-of-three pivot,
// narrowing to the side that holds k. After rounds partitions it sorts
// the window left instead.
func selectRank(xs []float64, k, rounds int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		rounds--
		a, b, c := xs[lo], xs[int(uint(lo+hi)>>1)], xs[hi]
		p := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= p <= xs[i..hi], and every value between is p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
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
