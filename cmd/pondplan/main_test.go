package main

import (
	"context"
	"strings"
	"testing"

	"pond/internal/fleet"
)

func defaults() flags {
	return flags{
		topologies: "flat",
		arrival:    "poisson:rate=0.2:life=600",
		duration:   2000,
		hosts:      8,
		emcs:       4,
		poolGB:     512,
		degree:     2,
		cells:      4,
		targetQoS:  0.01,
		steps:      8,
		seed:       1,
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flags)
		wantErr string // substring; empty = must pass
	}{
		{"defaults", func(f *flags) {}, ""},
		{"topology-list", func(f *flags) { f.topologies = "flat,sharded,sparse" }, ""},
		{"negative-workers", func(f *flags) { f.workers = -1 }, "-workers"},
		{"zero-seed", func(f *flags) { f.seed = 0 }, "-seed"},
		{"negative-duration", func(f *flags) { f.duration = -1 }, "-duration"},
		{"nan-duration", func(f *flags) { f.duration = nan() }, "-duration"},
		{"zero-cells", func(f *flags) { f.cells = 0 }, "-cells"},
		{"zero-pool", func(f *flags) { f.poolGB = 0 }, "-pool"},
		{"qos-zero", func(f *flags) { f.targetQoS = 0 }, "-target-qos"},
		{"qos-one", func(f *flags) { f.targetQoS = 1 }, "-target-qos"},
		{"qos-nan", func(f *flags) { f.targetQoS = nan() }, "-target-qos"},
		{"zero-steps", func(f *flags) { f.steps = 0 }, "-steps"},
		{"bad-topology", func(f *flags) { f.topologies = "moebius" }, "unknown topology"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := defaults()
			tc.mutate(&f)
			names, err := validate(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(names) == 0 {
					t.Fatal("no topologies returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q, got none", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRenderPlanProducesWaterfall(t *testing.T) {
	f := defaults()
	f.duration = 400
	f.cells = 2
	f.hosts = 4
	f.poolGB = 64
	arrival, err := fleet.ParseArrival(f.arrival)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), fleet.Options{
		Cluster: fleet.ClusterOpts{
			Topology:    "flat",
			Hosts:       f.hosts,
			EMCs:        f.emcs,
			PoolGB:      f.poolGB,
			Cells:       f.cells,
			DurationSec: f.duration,
		},
		Arrivals: arrival,
		Engine:   fleet.EngineOpts{Seed: f.seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := renderPlan("flat", f, rep)
	for _, want := range []string{
		"telemetry:", "capacity plan: topology=flat",
		"pool-GB", "chosen:", "fleet DRAM saved",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
	// The static pool always heads the waterfall at zero savings.
	if !strings.Contains(out, "      64") {
		t.Fatalf("waterfall missing the static row:\n%s", out)
	}
}
