package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pond"
)

// size scales a workload: the exactness test runs the same generators
// at a tiny size.
type size struct {
	Cells       int     `json:"cells"`
	DurationSec float64 `json:"duration_sec"`
}

// workload is one set of inputs the benchmark drives. why is the
// one-line reason it exists, the same text BENCHMARK.json records.
type workload struct {
	name string
	why  string
	full size
	tiny size
	run  func(*bench) error
}

var workloads = []workload{
	{
		name: "churn",
		why:  "8 sparse cells, poisson 0.2/s, surge+emc-fail+host-drain over 60ks, frozen models: cell event loop and engine fan-out, no barriers",
		full: size{Cells: 8, DurationSec: 60000},
		tiny: size{Cells: 2, DurationSec: 3000},
		run:  runBatch,
	},
	{
		name: "release-train",
		why:  "8 sharded cells, fleet retrain+canary and elastic plans every 1000s, regional drift: serial mlops barriers dominate, cell loop is minor",
		full: size{Cells: 8, DurationSec: 12000},
		tiny: size{Cells: 2, DurationSec: 3000},
		run:  runBatch,
	},
	{
		name: "serve",
		why:  "1 closed-loop HTTP client: runs held, live-injected, resumed and streamed as NDJSON; daemon restarted every 16 runs: sliced fleet path, checkpoint, restore",
		full: size{Cells: 4, DurationSec: 6000},
		tiny: size{Cells: 2, DurationSec: 2000},
		run:  runServe,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params is the workload's generated input, for the context record.
func (w workload) params(b *bench) any {
	if w.name == "serve" {
		opts, hold, inj := serveRunOpts(b.seed, b.sz, 0)
		return map[string]any{"first_run": opts, "hold_at_sec": hold, "live_injection": inj,
			"retain_done": serveRetain, "min_runs": serveMinRuns, "restart_every": serveRestartEvery}
	}
	opts := make([]pond.FleetOpts, batchSeeds)
	for k := range opts {
		opts[k] = batchOpts(w.name, b.seed, b.sz, k)
	}
	return map[string]any{"opts": opts, "traced_slices": tracedSlices}
}

// seedRand is the generator every input parameter is drawn from: the
// benchmark seed and a salt per generated run.
func seedRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func injections(specs ...string) []pond.Injection {
	ins, err := pond.ParseInjections(strings.Join(specs, ","))
	if err != nil {
		panic(fmt.Sprintf("generated injection specs %q: %v", specs, err)) // generator bug
	}
	return ins
}

// batchOpts generates a batch workload's options for one of the
// batchSeeds simulator seeds an invocation cycles through; Workers is
// left for the caller to set. The seed drives the simulator's arrivals,
// VM mix and placement draws; the injections sit at fixed points of the
// horizon, so the simulated outcome varies across seeds only as much as
// the VM population does.
func batchOpts(name string, seed int64, sz size, sub int) pond.FleetOpts {
	r := seedRand(seed, int64(sub))
	d := sz.DurationSec
	o := pond.FleetOpts{
		Cluster: pond.ClusterOpts{Cells: sz.Cells, DurationSec: d},
		Engine:  pond.EngineOpts{Seed: 1 + r.Int63n(1<<40)},
	}
	switch name {
	case "churn":
		o.Cluster.Topology = "sparse"
		o.Arrivals = pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 600}
		o.Injections = injections(
			fmt.Sprintf("surge@t=%g:dur=%g:x=2", 0.3*d, d/20),
			fmt.Sprintf("emc-fail@t=%g:emc=1", 0.5*d),
			fmt.Sprintf("host-drain@t=%g:host=2", 0.7*d))
	case "release-train":
		o.Cluster.Topology = "sharded"
		o.Arrivals = pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.1, MeanLifetimeSec: 600}
		o.Model = pond.ModelOpts{RetrainEverySec: 1000, Scope: "fleet", BakeWindowSec: 1000}
		o.Capacity = pond.CapacityOpts{Elastic: true, PlanEverySec: 1000}
		lo := sz.Cells / 4
		o.Injections = injections(fmt.Sprintf("drift@t=%g:cells=%d-%d:mag=0.8",
			0.4*d, lo, lo+max(sz.Cells/2, 1)-1))
	}
	return o
}

// serveRunOpts generates the i-th serve run: its options, the hold
// point, and the injection posted live at the hold. The seed drives the
// simulator seed; the injection kind rotates with i so every
// live-injection path runs, at the same hold point each time.
func serveRunOpts(seed int64, sz size, i int) (pond.FleetOpts, float64, string) {
	r := seedRand(seed, 1<<30+int64(i))
	d := sz.DurationSec
	o := pond.FleetOpts{
		Cluster:  pond.ClusterOpts{Topology: "flat", Cells: sz.Cells, DurationSec: d},
		Arrivals: pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.1, MeanLifetimeSec: 600},
		Engine:   pond.EngineOpts{Seed: 1 + r.Int63n(1<<40)},
	}
	hold := math.Round(0.45 * d)
	var inj string
	switch i % 3 {
	case 0:
		inj = fmt.Sprintf("emc-fail@t=%g:emc=%d", hold, i%4)
	case 1:
		inj = fmt.Sprintf("host-drain@t=%g:host=%d", hold, i%8)
	default:
		inj = fmt.Sprintf("surge@t=%g:dur=%g:x=2", hold, d/10)
	}
	return o, hold, inj
}

// metricSpec names one reported metric and its unit; the lists match
// BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"vms_per_s", "VMs/s"},
	{"run_to_report_s.p50", "s"},
	{"run_to_report_s.p90", "s"},
	{"restart_s", "s"},
	{"checkpoint_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
	{"pool_share_pct", "%"},
	{"qos_violation_pct", "%"},
}

var perLayer = []metricSpec{
	{"fleet.setup.s", "s"},
	{"fleet.setup.allocs", "count"},
	{"fleet.advance.s", "s"},
	{"fleet.advance.spans", "count"},
	{"fleet.advance.us_per_event", "us"},
	{"fleet.advance.allocs_per_event", "count"},
	{"engine.parallel_eff", "ratio"},
	{"core.arrivals", "count"},
	{"core.placed", "count"},
	{"core.rejected", "count"},
	{"core.admit_ratio", "ratio"},
	{"fleet.events", "count"},
	{"fleet.log_bytes", "bytes"},
	{"mlops.retrain.s", "s"},
	{"mlops.retrain.spans", "count"},
	{"mlops.retrain.s.p50", "s"},
	{"mlops.retrain.allocs", "count"},
	{"mlops.retrains", "count"},
	{"mlops.promotions", "count"},
	{"mlops.rollbacks", "count"},
	{"mlops.promote_ratio", "ratio"},
	{"capacity.plan.s", "s"},
	{"capacity.plan.spans", "count"},
	{"capacity.fallbacks", "count"},
	{"capacity.fallback_ratio", "ratio"},
	{"capacity.final_pool_gb", "GB"},
	{"fleet.finish.s", "s"},
	{"fleet.finish.allocs", "count"},
	{"fleet.drain.s", "s"},
	{"fleet.drain.calls", "count"},
	{"fleet.drain.lines", "count"},
	{"fleet.snapshot.s", "s"},
	{"fleet.snapshot.bytes", "bytes"},
	{"fleet.restore.s", "s"},
	{"serve.events.s", "s"},
	{"serve.events.lines", "count"},
	{"serve.events.bytes", "bytes"},
	{"serve.checkpoint_s", "s"},
	{"serve.restore_s", "s"},
	{"serve.post_runs_ms.p50", "ms"},
	{"serve.get_run_ms.p50", "ms"},
	{"serve.inject_ms.p50", "ms"},
	{"serve.resume_ms.p50", "ms"},
	{"serve.metrics_scrape_ms.p50", "ms"},
	{"serve.http_errors", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// setSpanMetrics reports the spans named layer whose run has the given
// prefix as <layer>.s and <layer>.spans, divided over passes.
func (b *bench) setSpanMetrics(layer, runPrefix string, passes int) spanStats {
	st := b.tr.stats(layer, runPrefix)
	b.set(layer+".s", st.secs/float64(passes))
	b.set(layer+".spans", float64(st.count)/float64(passes))
	return st
}
