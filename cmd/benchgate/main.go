// Command benchgate is the CI benchmark-regression gate. It times a
// short, deterministic fleet-simulation smoke run with testing.Benchmark,
// emits the measurements as BENCH_fleet.json (the CI artifact that gives
// the repo a performance trajectory), and fails — exit 1 — when any
// gated metric regresses more than -tolerance against the committed
// baseline.
//
//	benchgate                              # measure, gate against BENCH_baseline.json
//	benchgate -update                      # refresh the committed baseline
//	benchgate -bench bench.txt             # also fold `go test -bench` output into the artifact
//
// Gated metrics: fleet_ns_per_op, fleet_allocs_per_op (lower is better),
// fleet_vms_per_sec (VMs placed per wall-clock second; higher is
// better), retrain_ns_per_op (the mlops model-lifecycle hot path —
// shadow scoring, holdout bookkeeping, challenger training — over a
// fixed synthetic stream), rollout_ns_per_op (the fleet pipeline's
// staged-rollout hot path: cross-cell corpus pooling, canary
// bookkeeping, release training, verdicts), and plan_ns_per_op (the
// elastic-capacity hot path: demand accumulation, controller targeting,
// Pool Manager grow/shrink against real EMC devices).
//
// Timing metrics gate with the wide -tolerance (default 20%) because CI
// runners are noisy. The *_allocs_per_op metrics gate with the separate
// -alloc-tolerance (default 2%): allocation counts are a deterministic
// function of the code, so even a small increase is a real regression —
// this is the tripwire protecting the zero-alloc steady-state hot path.
//
// Raw `go test -bench` lines ride along in the artifact for
// trend dashboards but are not gated — they are too machine-dependent
// for a hard threshold, whereas the fleet smoke is gated because its
// work is fixed and deterministic. After an intentional perf change,
// refresh with: go run ./cmd/benchgate -update.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pond/internal/capacity"
	"pond/internal/fleet"
	"pond/internal/mlops"
	"pond/internal/mlops/fleetpipeline"
)

// Metric is one measured value with its comparison direction.
type Metric struct {
	Value          float64 `json:"value"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// Result is the artifact schema.
type Result struct {
	Schema  string             `json:"schema"`
	Metrics map[string]Metric  `json:"metrics"`
	GoBench map[string]float64 `json:"go_bench_ns_per_op,omitempty"`
}

// smokeOptions is the fixed workload the gate times: small enough for CI,
// big enough to exercise arrivals, departures, and every injection kind.
func smokeOptions() fleet.Options {
	o := fleet.DefaultOptions()
	o.Cluster.Cells = 2
	o.Cluster.Hosts = 4
	o.Cluster.EMCs = 4
	o.Cluster.PoolGB = 64
	o.Cluster.DurationSec = 600
	o.Arrivals = fleet.ArrivalOpts{Process: fleet.ArrivalPoisson, RatePerSec: 0.2, MeanLifetimeSec: 200}
	o.Model.Disabled = true // gate the event loop, not model training
	o.Engine.Workers = 1    // single worker: CI runners have unpredictable core counts
	inj, err := fleet.ParseInjections("surge@t=100:dur=100:x=3,emc-fail@t=300,host-drain@t=400:host=1")
	if err != nil {
		panic(err)
	}
	o.Injections = inj
	return o
}

func main() {
	out := flag.String("out", "BENCH_fleet.json", "artifact path for the measured metrics")
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression per timing metric")
	allocTolerance := flag.Float64("alloc-tolerance", 0.02, "allowed fractional regression per *_allocs_per_op metric (allocation counts are deterministic, so the gate is tight)")
	update := flag.Bool("update", false, "write the measurements to -baseline and exit")
	benchFile := flag.String("bench", "", "optional `go test -bench` output to fold into the artifact")
	summary := flag.String("summary", "", "optional path to append a Markdown before/after delta table (CI passes $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	if *tolerance < 0 || *allocTolerance < 0 {
		fmt.Fprintf(os.Stderr, "benchgate: tolerances must be >= 0, got -tolerance=%g -alloc-tolerance=%g\n", *tolerance, *allocTolerance)
		os.Exit(2)
	}

	res := Result{Schema: "pond-bench/v1", Metrics: measureFleet()}
	for name, m := range measureRetrain() {
		res.Metrics[name] = m
	}
	for name, m := range measureRollout() {
		res.Metrics[name] = m
	}
	for name, m := range measurePlan() {
		res.Metrics[name] = m
	}
	if *benchFile != "" {
		gb, err := parseGoBench(*benchFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		res.GoBench = gb
	}

	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("benchgate: wrote %s\n", *out)
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-22s %14.1f\n", name, res.Metrics[name].Value)
	}

	if *update {
		if err := writeJSON(*baseline, res); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: baseline %s refreshed\n", *baseline)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchgate: no baseline at %s; run with -update to create one (not gating)\n", *baseline)
			return
		}
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	var regressions []string
	var rows []summaryRow
	for _, name := range sortedKeys(base.Metrics) {
		b := base.Metrics[name]
		cur, ok := res.Metrics[name]
		if !ok {
			fmt.Printf("benchgate: baseline metric %s no longer measured (skipping)\n", name)
			continue
		}
		var worse float64 // fractional regression, positive = worse
		if b.HigherIsBetter {
			worse = (b.Value - cur.Value) / b.Value
		} else {
			worse = (cur.Value - b.Value) / b.Value
		}
		// Timing metrics absorb CI-runner noise with the wide -tolerance;
		// allocation counts are a deterministic function of the code, so
		// they get the tight -alloc-tolerance. A change that quietly
		// re-boxes events or drops a freelist fails here even when the
		// wall clock happens to look fine.
		tol := *tolerance
		if strings.HasSuffix(name, "_allocs_per_op") {
			tol = *allocTolerance
		}
		status := "ok"
		if worse > tol {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f vs baseline %.1f (%+.0f%%, tolerance %.0f%%)",
					name, cur.Value, b.Value, 100*worse, 100*tol))
		}
		fmt.Printf("  %-22s %14.1f baseline %14.1f  %+6.1f%%  %s\n",
			name, cur.Value, b.Value, 100*worse, status)
		rows = append(rows, summaryRow{name: name, base: b.Value, cur: cur.Value, worse: worse, tol: tol, status: status})
	}
	if *summary != "" {
		if err := writeSummary(*summary, rows); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d metric(s) regressed past tolerance:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		fmt.Fprintln(os.Stderr, "benchgate: if intentional, refresh with: go run ./cmd/benchgate -update")
		os.Exit(1)
	}
	fmt.Println("benchgate: within tolerance")
}

// measureFleet times the smoke run and derives the gated metrics.
func measureFleet() map[string]Metric {
	o := smokeOptions()
	var placed int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := fleet.Run(context.Background(), o)
			if err != nil {
				b.Fatal(err)
			}
			placed = rep.Placed
		}
	})
	requireMeasured("fleet", r)
	ns := float64(r.NsPerOp())
	vmsPerSec := 0.0
	if ns > 0 {
		vmsPerSec = float64(placed) / (ns / 1e9)
	}
	return map[string]Metric{
		"fleet_ns_per_op":     {Value: ns, HigherIsBetter: false},
		"fleet_allocs_per_op": {Value: float64(r.AllocsPerOp()), HigherIsBetter: false},
		"fleet_vms_per_sec":   {Value: vmsPerSec, HigherIsBetter: true},
	}
}

// measureRetrain times the mlops model-lifecycle hot path over a fixed
// synthetic stream (512 outcomes, a retrain tick every 64) — the same
// work as BenchmarkRetrainLoop.
func measureRetrain() map[string]Metric {
	cfg := mlops.DefaultConfig()
	cfg.MinTrainRows = 64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if q := mlops.SyntheticLoop(512, 64, cfg); q.Retrains == 0 {
				// panic, not b.Fatal: a Fatal inside testing.Benchmark
				// yields a zero result that would sail through the gate
				// as a massive improvement.
				panic("benchgate: synthetic retrain loop never retrained")
			}
		}
	})
	requireMeasured("retrain", r)
	return map[string]Metric{
		"retrain_ns_per_op":     {Value: float64(r.NsPerOp()), HigherIsBetter: false},
		"retrain_allocs_per_op": {Value: float64(r.AllocsPerOp()), HigherIsBetter: false},
	}
}

// measureRollout times the fleet pipeline's staged-rollout hot path —
// the same work as BenchmarkRolloutLoop: 4 cells feeding one release
// train through 8 retrain barriers of 24 outcomes per cell.
func measureRollout() map[string]Metric {
	cfg := fleetpipeline.DefaultConfig(4)
	cfg.MinTrainRows = 64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c := fleetpipeline.SyntheticRollout(4, 8, 24, cfg); c.Retrains == 0 {
				// panic, not b.Fatal: a Fatal inside testing.Benchmark
				// yields a zero result that would sail through the gate
				// as a massive improvement.
				panic("benchgate: synthetic rollout never retrained")
			}
		}
	})
	requireMeasured("rollout", r)
	return map[string]Metric{
		"rollout_ns_per_op":     {Value: float64(r.NsPerOp()), HigherIsBetter: false},
		"rollout_allocs_per_op": {Value: float64(r.AllocsPerOp()), HigherIsBetter: false},
	}
}

// measurePlan times the elastic-capacity hot path — the same work as
// BenchmarkPlanLoop: 4 cells' demand waves driving controller targets
// and Pool Manager grow/shrink through 16 planning rounds of 32 demand
// samples each.
func measurePlan() map[string]Metric {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := capacity.SyntheticPlan(4, 16, 32, 1); s.Grows == 0 || s.Shrinks == 0 {
				// panic, not b.Fatal: a Fatal inside testing.Benchmark
				// yields a zero result that would sail through the gate
				// as a massive improvement.
				panic("benchgate: synthetic plan never resized in both directions")
			}
		}
	})
	requireMeasured("plan", r)
	return map[string]Metric{
		"plan_ns_per_op":     {Value: float64(r.NsPerOp()), HigherIsBetter: false},
		"plan_allocs_per_op": {Value: float64(r.AllocsPerOp()), HigherIsBetter: false},
	}
}

// summaryRow is one gated metric's before/after comparison, rendered
// into the CI job summary.
type summaryRow struct {
	name       string
	base, cur  float64
	worse, tol float64
	status     string
}

// writeSummary appends a Markdown delta table to path. CI passes
// $GITHUB_STEP_SUMMARY so every run shows the baseline comparison on the
// job page without digging through logs or artifacts.
func writeSummary(path string, rows []summaryRow) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "### Benchmark gate: current vs committed baseline")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Metric | Baseline | Current | Δ | Tolerance | Status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	for _, r := range rows {
		mark := "✅"
		if r.status != "ok" {
			mark = "❌"
		}
		fmt.Fprintf(w, "| `%s` | %.1f | %.1f | %+.1f%% | %.0f%% | %s %s |\n",
			r.name, r.base, r.cur, 100*r.worse, 100*r.tol, mark, r.status)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Δ is the fractional *regression* (positive = worse, regardless of metric direction).")
	return w.Flush()
}

// requireMeasured exits hard on a zero benchmark result — the signature
// of a b.Fatal swallowed inside testing.Benchmark, which must never be
// gated (or written to a baseline) as an infinitely fast run.
func requireMeasured(name string, r testing.BenchmarkResult) {
	if r.N == 0 || r.NsPerOp() == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s benchmark produced no measurement (failed inside testing.Benchmark?)\n", name)
		os.Exit(2)
	}
}

// parseGoBench extracts "BenchmarkName  N  ns/op" lines from `go test
// -bench` output.
func parseGoBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					out[fields[0]] = v
				}
				break
			}
		}
	}
	return out, sc.Err()
}

func readBaseline(path string) (Result, error) {
	var r Result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("baseline %s: %w", path, err)
	}
	return r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
