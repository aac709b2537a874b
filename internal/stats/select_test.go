package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// selectValues are the values a palette-coded fuzz input picks from:
// repeats, both infinities, the extremes of float64, and the two values
// whose place among equals sort.Float64s leaves open (-0 beside +0, and
// NaN).
var selectValues = [16]float64{
	0, 1, -1, 2.5, 0.5, -3, 1e300, -1e300,
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64,
	7, 0.1, math.Copysign(0, -1), math.NaN(),
}

// decodeFloats turns fuzz bytes into floats. An even first byte reads the
// rest 8 bytes per float, so any bit pattern appears (every NaN payload,
// ±0, ±Inf, subnormals); an odd one reads a palette index per byte, which
// gives the long runs of equal values selection has to partition.
func decodeFloats(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var xs []float64
	if mode%2 == 0 {
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return xs
	}
	for _, b := range data {
		xs = append(xs, selectValues[b%16])
	}
	return xs
}

// rawFloats is the even-mode encoding of xs.
func rawFloats(xs ...float64) []byte {
	out := []byte{0}
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// sortedBits returns the bit patterns of xs in ascending order, so two
// slices hold the same values exactly when their sortedBits are equal.
func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	slices.Sort(out)
	return out
}

// FuzzQuantileSelect checks QuantileSelect bit for bit against its
// definition, sort.Float64s followed by QuantileSorted, for any floats
// and any q in [0,1] (a finite q outside is folded into [0,1)), and
// checks that it only reorders its input.
func FuzzQuantileSelect(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 12, 13}, 0.5)
	f.Add([]byte{1, 0, 14, 0, 14, 1, 14, 0}, 0.25) // -0 beside +0
	f.Add([]byte{1, 15, 0, 15, 3, 2}, 0.5)         // NaN
	f.Add([]byte{1, 8, 9, 8, 9, 3, 3, 6, 7}, 0.7)  // ±Inf and the extremes
	f.Add([]byte{1, 3}, 0.05)
	f.Add(append([]byte{1}, make([]byte, 300)...), 0.05)
	f.Add([]byte{1, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 2, 2, 2, 4, 4, 4, 4, 4, 4}, 0.95)
	f.Add(rawFloats(3, 1, 2, 5, 4, 0.5, -2, 1e-310), 0.0)
	f.Add(rawFloats(3, 1, 2, 5, 4, 0.5, -2, 1e-310), 1.0)
	f.Add(rawFloats(negZero, 0, math.NaN(), math.Float64frombits(0x7ff0000000000001), 1), 0.5)
	f.Add(rawFloats(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2, -3), 0.3)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return
		}
		if q < 0 || q > 1 {
			q = math.Abs(q)
			q -= math.Floor(q)
		}
		xs := decodeFloats(data)
		if len(xs) == 0 {
			return
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		want := QuantileSorted(sorted, q)
		before := sortedBits(xs)
		got := QuantileSelect(xs, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QuantileSelect(q=%v) = %v (%#x), sort+QuantileSorted = %v (%#x)",
				q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if !slices.Equal(sortedBits(xs), before) {
			t.Fatal("QuantileSelect changed the values it was given, not just their order")
		}
	})
}

// TestSelectRankAfterItsRounds checks the worst-case bound's fallback:
// with its partition rounds spent, selection sorts the window left and
// still returns every rank's value.
func TestSelectRankAfterItsRounds(t *testing.T) {
	r := NewRand(9)
	base := make([]float64, 257)
	for i := range base {
		base[i] = float64(r.Intn(20)) - 5
	}
	sorted := slices.Clone(base)
	slices.Sort(sorted)
	for _, rounds := range []int{0, 1, 2, 3, 100} {
		for _, k := range []int{0, 1, 64, 128, 255, 256} {
			xs := slices.Clone(base)
			selectRank(xs, k, rounds)
			if xs[k] != sorted[k] {
				t.Fatalf("rounds=%d k=%d: xs[k] = %v, want %v", rounds, k, xs[k], sorted[k])
			}
			for i, x := range xs {
				if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
					t.Fatalf("rounds=%d k=%d: xs[%d] = %v on the wrong side of %v", rounds, k, i, x, xs[k])
				}
			}
		}
	}
}

// TestQuantileSelectOrderedInputs runs selection on the inputs that defeat
// naive pivots — sorted, reversed, organ pipe, all equal — at a size where
// the partition rounds run out, against the sorted definition.
func TestQuantileSelectOrderedInputs(t *testing.T) {
	const n = 4099
	inputs := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"all-equal":  func(int) float64 { return 2.5 },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
	}
	for name, at := range inputs {
		for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.999, 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = at(i)
			}
			sorted := slices.Clone(xs)
			sort.Float64s(sorted)
			want := QuantileSorted(sorted, q)
			if got := QuantileSelect(xs, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s q=%v: got %v, want %v", name, q, got, want)
			}
		}
	}
}

func TestQuantileSelectPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	QuantileSelect(nil, 0.5)
}
