package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"pond/internal/stats"
)

// pinnedSet builds a 12-feature training set that exercises every corner
// the dense grower and the GBM leaf step must reproduce bit for bit:
// constant columns (one of them feature 0, whose window supplies the
// node totals), continuous columns, long runs of a few repeated values,
// a column mixing -0 and +0 with nonzero values, and targets that are
// often exactly zero, sometimes -0.
func pinnedSet(n int, seed int64) ([][]float64, []float64) {
	r := stats.NewRand(seed)
	negZero := math.Copysign(0, -1)
	signed := []float64{negZero, 0, 1, -1, 0.5}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, 12)
		row[0] = 3                              // constant at index 0
		row[1] = r.Float64()                    // continuous
		row[2] = float64(r.Intn(4))             // long runs, 4 values
		row[3] = signed[r.Intn(len(signed))]    // ±0 among nonzero values
		row[4] = -7.5                           // constant elsewhere
		row[5] = r.NormFloat64()                // continuous, signed
		row[6] = 0.5 * float64(r.Intn(3))       // long runs, 3 values
		row[7] = r.ExpFloat64()                 // continuous, skewed
		row[8] = float64(r.Intn(2))             // two values
		row[9] = math.Round(10*r.Float64()) / 4 // 11 values
		row[10] = r.Float64() * 100             // continuous, wide
		row[11] = float64(r.Intn(40))           // medium cardinality
		X[i] = row
		switch u := r.Float64(); {
		case u < 0.3:
			y[i] = 0
		case u < 0.35:
			y[i] = negZero
		default:
			y[i] = 2*row[1] + row[2] - 0.3*row[3] + 0.2*row[11] + 0.5*r.NormFloat64()
		}
	}
	return X, y
}

// hashGBM is the SHA-256 of the model's wire form. Floats encode in
// their shortest round-tripping form (-0 as "-0"), so any change to a
// threshold or leaf value, however low the bit, changes the hash.
func hashGBM(t *testing.T, m *GBM) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportGBM(&buf, m); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFitGBMBitsPinned pins the exact bits of fitted models. The fleet
// goldens print losses rounded, so a low-bit model change could pass
// them; these hashes catch it. A change to the grower or the leaf step
// that moves any hash changes what every retrain barrier serves.
func TestFitGBMBitsPinned(t *testing.T) {
	want := map[string]string{
		"n=97/q=0.05":   "22cf275aa5602d29342ae65dc74f6ba98f43f20b8c50c707f522d116ac82cd1b",
		"n=97/q=0.25":   "bc97c495d962e610821a97f4a68cfde63bad1435d7157c8a57ed48e2aa8e6fa1",
		"n=600/q=0.05":  "0905c8df9b85bb05d6ce6e3ffa9daf35f0e53717c635314341b26cc2c2246225",
		"n=600/q=0.25":  "592be6849ea90fc4f46bf0ad180291407835decce32670b8c3a4e8ea8d86ed6c",
		"n=4096/q=0.05": "f4f1189231e3b79fa87c5c38468828df9be0de7a4658fcda115d18a64ccdf2b7",
		"n=4096/q=0.25": "4abe425d19cb52235251a034ac4c8b7d8866c8b5e86908a39c94e51ebcdcfe20",
		"tree/n=600":    "9fb3feb0c3d9704f63a2481f9cb45c0955ffe78f0dea93c8f7bdcad0ff29409c",
	}
	got := map[string]string{}
	for _, n := range []int{97, 600, 4096} {
		X, y := pinnedSet(n, int64(n))
		for _, q := range []float64{0.05, 0.25} {
			cfg := DefaultGBMConfig()
			cfg.Quantile = q
			got[fmt.Sprintf("n=%d/q=%v", n, q)] = hashGBM(t, FitGBM(X, y, cfg))
		}
	}
	// A dense-strategy tree (FeatureFrac above the sparse threshold) on
	// targets that are not all 0 or 1.
	X, y := pinnedSet(600, 11)
	cfg := TreeConfig{MaxDepth: 6, MinLeaf: 5, FeatureFrac: 0.9, Criterion: Variance}
	tree := FitTree(X, y, cfg, stats.NewRand(5))
	wire, err := json.Marshal(flattenTree(tree))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(wire)
	got["tree/n=600"] = hex.EncodeToString(sum[:])
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

// fitSink keeps the benchmarked fit from being optimized away.
var fitSink *GBM

// BenchmarkFitGBM fits the default 80-stage quantile GBM on the 4096-row
// pinned set, the size of a fleet-scope retrain corpus.
func BenchmarkFitGBM(b *testing.B) {
	X, y := pinnedSet(4096, 4096)
	cfg := DefaultGBMConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSink = FitGBM(X, y, cfg)
	}
}
