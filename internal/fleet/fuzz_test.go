package fleet

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the user-facing spec parsers. The checked-in seeds
// (f.Add plus testdata/fuzz corpora) run on every ordinary `go test`;
// the CI fuzz job additionally explores for a bounded time. The
// contract under fuzzing: malformed specs must error — never panic —
// and accepted specs must land inside their documented domains (no
// silent clamping) and round-trip through String().

func FuzzParseInjections(f *testing.F) {
	for _, seed := range []string{
		"emc-fail@t=500",
		"emc-fail@t=500:emc=1",
		"host-drain@t=800:host=2",
		"surge@t=300:dur=200:x=3",
		"drift@t=2000:mag=0.6",
		"drift@t=2000:cells=2-3:mag=0.6",
		"drift@t=100:cells=1",
		"emc-fail@t=500, host-drain@t=800:host=2, surge@t=300:dur=200:x=3",
		"",
		"meteor@t=1",
		"emc-fail",
		"emc-fail@t=-1",
		"emc-fail@t=NaN",
		"emc-fail@t=Inf",
		"surge@t=1:x=0.5",
		"drift@t=1:mag=2",
		"drift@t=1:cells=3-1",
		"drift@t=1:cells=1-2-3",
		"drift@t=1:cells=-1",
		"emc-fail@t=1:cells=0-1",
		"emc-fail@t=1:emc=99999999999999999999",
		"drift@t=1e308:mag=0.5",
		"surge@t=0:dur=0:x=1.0000001",
		"@t=1",
		"emc-fail@",
		"emc-fail@t=1:",
		"emc-fail@t=1:=2",
		"resize@t=500:emc=1:slices=-8",
		"resize@t=500:emc=0:slices=+16",
		"resize@t=500:emc=0:slices=16",
		"resize@t=1",
		"resize@t=1:slices=0",
		"resize@t=1:slices=1.5",
		"resize@t=1:emc=-1:slices=4",
		"resize@t=1:dur=5:slices=4",
		"resize@t=1:mag=0.5",
		"resize@t=1:host=2:slices=4",
		"resize@t=1:cells=0-1:slices=4",
		"resize@t=1:slices=99999999999999999999",
		"resize@t=1:slices=-9223372036854775808",
		"resize@t=1:emc=0:slices=2000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ins, err := ParseInjections(spec)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		for _, in := range ins {
			// Accepted values must be inside the documented domains —
			// rejecting is fine, silently clamping is not.
			if in.atSec < 0 || math.IsNaN(in.atSec) || math.IsInf(in.atSec, 0) {
				t.Fatalf("accepted injection %q with t=%v", spec, in.atSec)
			}
			switch in.kind {
			case InjectEMCFail, InjectHostDrain, InjectSurge, InjectDrift, InjectResize:
			default:
				t.Fatalf("accepted unknown kind %q from %q", in.kind, spec)
			}
			if in.emc < 0 || in.host < 0 {
				t.Fatalf("accepted negative target from %q: %+v", spec, in)
			}
			if in.kind == InjectSurge && (in.factor <= 1 || in.durSec < 0) {
				t.Fatalf("accepted out-of-domain surge from %q: %+v", spec, in)
			}
			if in.kind == InjectDrift {
				if in.mag <= 0 || in.mag > 1 {
					t.Fatalf("accepted out-of-domain drift magnitude from %q: %+v", spec, in)
				}
				if in.cellHi >= 0 && (in.cellLo < 0 || in.cellLo > in.cellHi) {
					t.Fatalf("accepted empty cell range from %q: %+v", spec, in)
				}
			}
			if in.kind == InjectResize && (in.slices == 0 || in.slices < -MaxResizeSlices || in.slices > MaxResizeSlices) {
				t.Fatalf("accepted out-of-domain resize from %q: %+v", spec, in)
			}
			// String() must render a spec that parses back to the same
			// injection.
			again, rerr := ParseInjections(in.String())
			if rerr != nil {
				t.Fatalf("rendered spec %q does not re-parse: %v", in.String(), rerr)
			}
			if len(again) != 1 || again[0] != in {
				t.Fatalf("injection %+v did not round-trip via %q: %+v", in, in.String(), again)
			}
		}
	})
}

func FuzzParseArrival(f *testing.F) {
	for _, seed := range []string{
		"", "poisson", "poisson:rate=0.05", "poisson:rate=0.05:life=600",
		"trace", "trace:rate=1", "uniform", "poisson:rate=-1", "poisson:rate=0",
		"poisson:burst=3", "poisson:rate=", "poisson:rate", "poisson:rate=Inf",
		"poisson:rate=NaN", "poisson::life=1", "poisson:rate=1e308:life=1e-308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseArrival(spec)
		if err != nil {
			return
		}
		if m.Process != ArrivalPoisson && m.Process != ArrivalTrace {
			t.Fatalf("accepted unknown arrival kind %q from %q", m.Process, spec)
		}
		if m.RatePerSec <= 0 || m.MeanLifetimeSec <= 0 ||
			math.IsInf(m.RatePerSec, 0) || math.IsNaN(m.RatePerSec) ||
			math.IsInf(m.MeanLifetimeSec, 0) || math.IsNaN(m.MeanLifetimeSec) {
			t.Fatalf("accepted out-of-domain arrival from %q: %+v", spec, m)
		}
		// Round trip.
		again, rerr := ParseArrival(m.String())
		if rerr != nil || again != m {
			t.Fatalf("arrival %+v did not round-trip via %q: %+v (%v)", m, m.String(), again, rerr)
		}
	})
}

func FuzzParseTopologies(f *testing.F) {
	for _, seed := range []string{
		"flat", "flat,sharded,sparse", "flat, sharded", "", ",", "flat,",
		",flat", "flat,,sparse", "moebius", "FLAT", "flat sharded", "flat;sharded",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		names, err := ParseTopologies(list)
		if err != nil {
			return
		}
		if len(names) == 0 {
			t.Fatalf("accepted %q as an empty topology list", list)
		}
		for _, n := range names {
			if n != "flat" && n != "sharded" && n != "sparse" {
				t.Fatalf("accepted unknown topology %q from %q", n, list)
			}
			if strings.TrimSpace(n) != n || n == "" {
				t.Fatalf("returned unnormalized topology %q from %q", n, list)
			}
		}
	})
}
