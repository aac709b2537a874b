package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// exactCounts are the per-layer metrics that are pure functions of the
// seed: any speed-only change must leave them untouched, so they can be
// gated at zero tolerance.
var exactCounts = []string{
	"core.arrivals", "core.placed", "core.rejected", "core.admit_ratio",
	"fleet.events", "fleet.log_bytes",
	"mlops.retrains", "mlops.promotions", "mlops.rollbacks",
	"capacity.fallbacks", "capacity.final_pool_gb",
	"serve.events.lines", "serve.events.bytes",
}

func runTiny(t *testing.T, wl workload, traced bool) *bench {
	t.Helper()
	b := newBench(context.Background(), wl, wl.tiny, 7, 0.001, traced, t.TempDir(), io.Discard)
	res, err := b.measure()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return b
}

// TestWorkCountsExact runs every workload traced at a tiny size twice
// and requires identical work counts and determinism witnesses.
func TestWorkCountsExact(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			first, second := runTiny(t, wl, true), runTiny(t, wl, true)
			for _, name := range exactCounts {
				if first.metrics[name] != second.metrics[name] {
					t.Errorf("%s: %v then %v", name, first.metrics[name], second.metrics[name])
				}
			}
			if first.metrics["core.placed"] == 0 {
				t.Error("core.placed is 0: the tiny workload placed nothing")
			}
			if len(first.hashes) == 0 || !reflect.DeepEqual(first.hashes, second.hashes) {
				t.Errorf("hashes differ:\n%v\n%v", first.hashes, second.hashes)
			}
		})
	}
}

// TestEndToEndMetrics runs every workload untraced at a tiny size and
// checks it reports every end-to-end metric, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			b := runTiny(t, wl, false)
			for _, m := range endToEnd {
				if v := b.metrics[m.name]; v <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestSelfTime checks self time subtracts the union of child intervals,
// so overlapping children are not counted twice.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "trace.run", Parent: -1, Start: 0, End: 10},
		{Name: "serve.events", Parent: 0, Start: 1, End: 8},
		{Name: "serve.get_run", Parent: 0, Start: 2, End: 4},
		{Name: "serve.post_runs", Parent: 0, Start: 9, End: 9.5},
	}
	rows, wall, covered := tr.table()
	self := map[string]float64{}
	for _, r := range rows {
		self[r.name] = r.self
	}
	if wall != 10 || covered != 7.5 || self["trace.run"] != 2.5 || self["serve.events"] != 7 {
		t.Fatalf("wall %v covered %v self %v", wall, covered, self)
	}
}
