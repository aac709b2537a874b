// Command perfbench is the Pond simulator's benchmark. It drives one
// workload through the repository's public entry points — pond.RunFleet,
// pond.StartFleet/FleetRun, and the internal/serve daemon over HTTP —
// checks the outputs, and prints the metrics as one JSON object on the
// last line of standard output:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that wraps spans around the benchmark's calls into each
// layer and prints the per-layer metrics and a self-time table. See
// README.md for the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one benchmark invocation: the workload, its seed-derived
// inputs, the tracer (nil when untraced), the operation tally, and the
// metrics gathered so far.
type bench struct {
	ctx     context.Context
	wl      workload
	sz      size
	seed    int64
	seconds time.Duration
	workers int
	tr      *tracer
	out     string
	log     io.Writer

	attempted, failed int
	metrics           map[string]float64
	// setups are the untraced run's set-up samples, in seconds.
	setups []float64
	// hashes are the determinism witnesses the run produced, in order;
	// the exactness test compares them across invocations.
	hashes []string
}

// op counts one attempted operation; a non-nil err counts it failed
// and is reported on the log.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAILED: %v\n", err)
	}
	return err
}

// check counts one correctness check as an operation.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if ok {
		b.op(nil)
	} else {
		b.op(fmt.Errorf("check: "+format, args...))
	}
	return ok
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// timeLeft reports whether the measurement window is still open.
func (b *bench) timeLeft(start time.Time) bool { return time.Since(start) < b.seconds }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for state files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	b := newBench(context.Background(), wl, wl.full, *seed, *seconds, *trace == 1, *out, stdout)
	res, err := b.measure()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newBench(ctx context.Context, wl workload, sz size, seed int64, seconds float64, traced bool, out string, log io.Writer) *bench {
	b := &bench{ctx: ctx, wl: wl, sz: sz, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		out:     out, log: log, metrics: map[string]float64{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// measure runs the workload and assembles the result. An error means
// the benchmark itself could not run (not a failed operation).
func (b *bench) measure() (*result, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	b.printContext()
	if err := b.wl.run(b); err != nil {
		return nil, err
	}
	names := endToEnd
	if b.tr != nil {
		b.set("trace.coverage_pct", b.tr.coverage())
		b.tr.printTable(b.log, b.wl.name)
		path := filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.json", b.wl.name, b.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.log, "spans written to %s\n", path)
		names = perLayer
	} else {
		fmt.Fprintf(b.log, "%s: setup samples %.4f s\n", b.wl.name, b.setups)
		if len(b.setups) > 0 {
			b.set("setup_s", median(b.setups))
		}
		b.set("ok_pct", pct(float64(b.attempted-b.failed), float64(b.attempted)))
		b.set("peak_rss_mb", peakRSSMB())
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := b.metrics[m.name]
		if !ok && b.tr != nil {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s did not produce metric %s", b.wl.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// printContext records what the numbers depend on: the machine's
// parallelism, the seed, the workload's parameters and why it exists.
func (b *bench) printContext() {
	ctx := map[string]any{
		"workload":   b.wl.name,
		"why":        b.wl.why,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"traced":     b.tr != nil,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    b.workers,
		"go":         runtime.Version(),
		"params":     b.wl.params(b),
	}
	data, _ := json.Marshal(ctx) // only strings, numbers and option structs
	fmt.Fprintf(b.log, "context: %s\n", data)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB; off
// Linux it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile interpolates linearly between order statistics; it is 0 for
// no samples (every attempt failed, which the failure count reports).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
