// Command pondfleet runs the online, event-driven fleet simulation: VMs
// arrive and depart continuously, every admission flows through the
// prediction/QoS control plane, and operational scenarios — EMC failures
// with topology-bounded blast radius, host drains, load surges, regional
// drift — are injected mid-run.
//
//	pondfleet -topology sparse -inject emc-fail@t=500
//	pondfleet -topology flat,sharded,sparse -arrival trace -duration 3600
//	pondfleet -arrival poisson:rate=0.2:life=300 -inject surge@t=300:dur=200:x=3
//	pondfleet -retrain-every 1000 -model-scope fleet -canary 0.25 -bake 2000 \
//	    -inject drift@t=8000:cells=2-3:mag=0.8
//	pondfleet -elastic -plan-every 500 -target-qos 0.01 \
//	    -inject resize@t=300:emc=1:slices=-16
//
// -topology accepts a comma-separated list; with more than one entry the
// tool prints a per-topology comparison of stranding, utilization, and
// blast radius. -model-scope fleet pools telemetry across cells into the
// §5 central pipeline and deploys each retrained model through a staged
// canary rollout. -elastic turns on the online capacity controller: at
// every -plan-every barrier each cell's pool is re-planned from observed
// demand and grown or shrunk through the Pool Manager's elastic APIs
// (cmd/pondplan runs the offline savings waterfall over the same
// telemetry). Cells fan out over the parallel engine: -workers bounds
// the pool and the event log (and its printed hash) is byte-identical
// for any value.
//
// The flags map one-to-one onto pond.FleetOpts' grouped sub-configs —
// cluster sizing, model lifecycle, capacity planning, engine — and are
// registered per group through internal/cliutil, with defaults drawn
// from pond.Defaults(). pondserve accepts the same configuration as a
// JSON body.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pond"
	"pond/internal/cliutil"
	"pond/internal/fleet"
	"pond/internal/fsutil"
)

// flags carries every pondfleet flag value so validation is testable
// without exec'ing the binary. The grouped opts hold everything the
// shared cliutil registrations own; the spec-string and output flags
// are pondfleet-local.
type flags struct {
	topologies string
	arrival    string
	inject     string
	modelsOut  string
	metricsOut string
	printLog   bool
	checkpoint string
	resume     bool
	opts       pond.FleetOpts
}

// baseOpts seeds the grouped defaults the flag registrations use. The
// topology comes from the -topology list, and validate fills Arrivals
// and Injections from the -arrival and -inject spec strings.
func baseOpts() pond.FleetOpts {
	o := pond.Defaults()
	o.Cluster.Topology = ""
	return o
}

// validate rejects every flag combination the fleet layer would only
// reject after parsing — or, worse, silently coerce — with one readable
// error. It parses the -arrival and -inject spec strings into the
// grouped f.opts and returns the parsed topology list on success.
func validate(f *flags) ([]string, error) {
	if err := cliutil.ValidateWorkers(f.opts.Engine.Workers); err != nil {
		return nil, err
	}
	if err := cliutil.ValidateSeed(f.opts.Engine.Seed); err != nil {
		return nil, err
	}
	cl, m, cp := f.opts.Cluster, f.opts.Model, f.opts.Capacity
	if cl.DurationSec <= 0 || math.IsNaN(cl.DurationSec) || math.IsInf(cl.DurationSec, 0) {
		return nil, fmt.Errorf("-duration must be a positive number, got %g", cl.DurationSec)
	}
	if cl.Cells <= 0 {
		return nil, fmt.Errorf("-cells must be positive, got %d", cl.Cells)
	}
	if m.RetrainEverySec < 0 || math.IsNaN(m.RetrainEverySec) || math.IsInf(m.RetrainEverySec, 0) {
		return nil, fmt.Errorf("-retrain-every must be a finite number >= 0, got %g", m.RetrainEverySec)
	}
	if m.RetrainEverySec > 0 && m.Disabled {
		return nil, fmt.Errorf("-retrain-every requires predictions (drop -no-predictions)")
	}
	if f.modelsOut != "" && m.Disabled {
		return nil, fmt.Errorf("-models requires predictions (drop -no-predictions)")
	}
	switch m.Scope {
	case "", fleet.ScopeCell:
		if m.CanaryFraction != 0 || m.BakeWindowSec != 0 {
			return nil, fmt.Errorf("-canary and -bake require -model-scope %s", fleet.ScopeFleet)
		}
	case fleet.ScopeFleet:
		if m.RetrainEverySec <= 0 {
			return nil, fmt.Errorf("-model-scope %s requires -retrain-every > 0", fleet.ScopeFleet)
		}
		if m.CanaryFraction != 0 && !(m.CanaryFraction > 0 && m.CanaryFraction <= 1) { // rejects NaN too
			return nil, fmt.Errorf("-canary must be in (0, 1], got %g", m.CanaryFraction)
		}
		if m.BakeWindowSec < 0 || math.IsNaN(m.BakeWindowSec) || math.IsInf(m.BakeWindowSec, 0) {
			return nil, fmt.Errorf("-bake must be a finite number >= 0, got %g", m.BakeWindowSec)
		}
	default:
		return nil, fmt.Errorf("-model-scope must be %s or %s, got %q", fleet.ScopeCell, fleet.ScopeFleet, m.Scope)
	}
	if !(m.PromoteMargin >= 0 && m.PromoteMargin < 1) { // rejects NaN too
		return nil, fmt.Errorf("-promote-margin must be in [0, 1), got %g", m.PromoteMargin)
	}
	if !cp.Elastic && (cp.PlanEverySec != 0 || cp.TargetQoS != 0) {
		return nil, fmt.Errorf("-plan-every and -target-qos require -elastic")
	}
	if cp.Elastic {
		if cp.PlanEverySec < 0 || math.IsNaN(cp.PlanEverySec) || math.IsInf(cp.PlanEverySec, 0) {
			return nil, fmt.Errorf("-plan-every must be a finite number >= 0, got %g", cp.PlanEverySec)
		}
		if cp.PlanEverySec >= cl.DurationSec {
			return nil, fmt.Errorf("-plan-every %g never fires within the %g second horizon", cp.PlanEverySec, cl.DurationSec)
		}
		if cp.TargetQoS != 0 && !(cp.TargetQoS > 0 && cp.TargetQoS < 1) { // rejects NaN too
			return nil, fmt.Errorf("-target-qos must be in (0, 1), got %g", cp.TargetQoS)
		}
	}
	if m.HoldoutWindow < 0 || m.MinTrainRows < 0 {
		return nil, fmt.Errorf("-holdout and -min-rows must be >= 0")
	}
	every := f.opts.Engine.MetricsEverySec
	if every < 0 || math.IsNaN(every) || math.IsInf(every, 0) {
		return nil, fmt.Errorf("-metrics-every must be a finite number >= 0, got %g", every)
	}
	if f.metricsOut != "" && every <= 0 {
		return nil, fmt.Errorf("-metrics requires -metrics-every > 0 to sample anything")
	}
	names, err := fleet.ParseTopologies(f.topologies)
	if err != nil {
		return nil, err
	}
	arr, err := fleet.ParseArrival(f.arrival)
	if err != nil {
		return nil, err
	}
	f.opts.Arrivals = pond.ArrivalOpts{Process: arr.Kind, RatePerSec: arr.RatePerSec, MeanLifetimeSec: arr.MeanLifetimeSec}
	if f.opts.Injections, err = pond.ParseInjections(f.inject); err != nil {
		return nil, err
	}
	if f.resume && f.checkpoint == "" {
		return nil, fmt.Errorf("-resume requires -checkpoint <path>")
	}
	if f.checkpoint != "" && len(names) > 1 {
		return nil, fmt.Errorf("-checkpoint runs a single topology, got %d", len(names))
	}
	if f.metricsOut != "" && len(names) > 1 {
		return nil, fmt.Errorf("-metrics streams a single topology, got %d", len(names))
	}
	return names, nil
}

func main() {
	f := flags{opts: baseOpts()}
	d := pond.Defaults()
	flag.StringVar(&f.topologies, "topology", d.Cluster.Topology, "comma-separated host-to-EMC topologies: flat, sharded, sparse")
	flag.StringVar(&f.arrival, "arrival", d.Arrivals.Spec(), `arrival model: "poisson[:rate=R][:life=L]" or "trace"`)
	flag.StringVar(&f.inject, "inject", "", `scenario injections, e.g. "emc-fail@t=500,host-drain@t=800:host=2,surge@t=300:dur=200:x=3,drift@t=2000:cells=2-3:mag=0.6"`)
	flag.StringVar(&f.modelsOut, "models", "", "write the versioned model dump (JSON) to this file")
	flag.StringVar(&f.metricsOut, "metrics", "", "stream the sim-time metrics series to this NDJSON file as the run advances (requires -metrics-every; single topology)")
	flag.BoolVar(&f.printLog, "log", false, "print the full event log")
	flag.StringVar(&f.checkpoint, "checkpoint", "", "snapshot file: SIGTERM/SIGINT pauses the run at a safe point and writes its full state here (single topology only)")
	flag.BoolVar(&f.resume, "resume", false, "resume from the -checkpoint snapshot instead of starting at t=0; the run configuration comes from the snapshot")
	cliutil.RegisterClusterFlags(flag.CommandLine, &f.opts.Cluster)
	cliutil.RegisterModelFlags(flag.CommandLine, &f.opts.Model)
	cliutil.RegisterCapacityFlags(flag.CommandLine, &f.opts.Capacity)
	cliutil.RegisterEngineFlags(flag.CommandLine, &f.opts.Engine)
	flag.Parse()

	names, err := validate(&f)
	if err != nil {
		cliutil.Fatal("pondfleet", err)
	}

	reports := make([]*pond.FleetReport, 0, len(names))
	for _, name := range names {
		o := f.opts
		o.Cluster.Topology = name
		o.Model.Capture = f.modelsOut != ""
		var rep *pond.FleetReport
		var err error
		if f.checkpoint != "" {
			rep, err = runCheckpointable(context.Background(), o, f.checkpoint, f.resume, f.metricsOut)
			if err == nil && rep == nil {
				// A signal paused the run and its snapshot is on disk.
				return
			}
		} else if f.metricsOut != "" {
			rep, err = runStreamingMetrics(context.Background(), o, f.metricsOut)
		} else {
			rep, err = pond.RunFleet(context.Background(), o)
		}
		if err != nil {
			cliutil.Fatal("pondfleet", err)
		}
		reports = append(reports, rep)
		fmt.Println(rep.Summary)
		if f.opts.Model.RetrainEverySec > 0 && len(rep.PromotionHistory) > 0 {
			fmt.Println("model lifecycle:")
			for _, line := range rep.PromotionHistory {
				fmt.Printf("  %s\n", line)
			}
		}
		if f.opts.Model.RetrainEverySec > 0 && len(rep.RolloutHistory) > 0 {
			fmt.Println("staged rollout:")
			for _, line := range rep.RolloutHistory {
				fmt.Printf("  %s\n", line)
			}
		}
		if f.opts.Capacity.Elastic && len(rep.PlanHistory) > 0 {
			fmt.Println("capacity plans:")
			for _, line := range rep.PlanHistory {
				fmt.Printf("  %s\n", line)
			}
		}
		if f.printLog {
			fmt.Print(rep.EventLog)
		}
		fmt.Println()
	}

	if f.modelsOut != "" {
		if err := writeModels(f.modelsOut, names, reports); err != nil {
			cliutil.Fatal("pondfleet", err)
		}
		fmt.Printf("wrote versioned model dump to %s\n", f.modelsOut)
	}

	if len(reports) > 1 {
		fmt.Println("per-topology comparison:")
		printComparison(reports)
	}
}

// metricsWriter streams drained sim-time series rows to an NDJSON
// file, one pond.MetricsRow object per line. Rows are observations
// only, so streaming them never changes the run's event log or report.
type metricsWriter struct {
	f   *os.File
	enc *json.Encoder
}

// openMetricsWriter opens the -metrics output. A resumed run appends —
// its earlier rows are already on disk and the snapshot carries only
// the not-yet-drained tail — while a fresh run truncates.
func openMetricsWriter(path string, resume bool) (*metricsWriter, error) {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, err
	}
	return &metricsWriter{f: f, enc: json.NewEncoder(f)}, nil
}

func (w *metricsWriter) writeRows(rows []pond.MetricsRow) error {
	if w == nil {
		return nil
	}
	for _, row := range rows {
		if err := w.enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func (w *metricsWriter) Close() error {
	if w == nil {
		return nil
	}
	return w.f.Close()
}

// runStreamingMetrics drives one run incrementally, draining the
// sampled series to the -metrics file after every slice so the NDJSON
// output follows the simulation rather than appearing at the end.
func runStreamingMetrics(ctx context.Context, o pond.FleetOpts, metricsPath string) (*pond.FleetReport, error) {
	fr, err := pond.StartFleet(ctx, o)
	if err != nil {
		return nil, err
	}
	mw, err := openMetricsWriter(metricsPath, false)
	if err != nil {
		return nil, err
	}
	horizon := fr.Progress().DurationSec
	slice := horizon / 64
	for !fr.Done() {
		if err := fr.Advance(ctx, fr.Now()+slice); err != nil {
			mw.Close()
			return nil, err
		}
		if err := mw.writeRows(fr.DrainMetrics()); err != nil {
			mw.Close()
			return nil, err
		}
	}
	rep, err := fr.Finish(ctx)
	if err != nil {
		mw.Close()
		return nil, err
	}
	if err := mw.writeRows(fr.DrainMetrics()); err != nil {
		mw.Close()
		return nil, err
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("streamed metrics to %s\n", metricsPath)
	return rep, nil
}

// runCheckpointable drives one run incrementally so SIGTERM/SIGINT can
// pause it at a safe point and persist its full state. It returns
// (nil, nil) when a signal stopped the run and the snapshot was
// written; resuming later continues from that point, and the final
// event log and report hash are byte-identical to an uninterrupted run.
// With metricsPath set the sampled series streams to NDJSON alongside;
// rows not yet drained when a signal lands ride inside the snapshot and
// are appended after -resume.
func runCheckpointable(ctx context.Context, o pond.FleetOpts, path string, resume bool, metricsPath string) (*pond.FleetReport, error) {
	// Install the handler before the (possibly slow) setup, so a signal
	// that lands while the models train still pauses the run at its
	// first safe point instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var fr *pond.FleetRun
	if resume {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading snapshot: %w", err)
		}
		var snap pond.FleetSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("corrupt snapshot %s: %w", path, err)
		}
		fr, err = pond.RestoreFleet(ctx, &snap)
		if err != nil {
			return nil, err
		}
		fmt.Printf("resumed from %s at t=%.0fs\n", path, fr.Now())
	} else {
		var err error
		fr, err = pond.StartFleet(ctx, o)
		if err != nil {
			return nil, err
		}
	}

	var mw *metricsWriter
	if metricsPath != "" {
		var err error
		mw, err = openMetricsWriter(metricsPath, resume)
		if err != nil {
			return nil, err
		}
		defer mw.Close()
	}

	fmt.Printf("checkpoint armed: SIGTERM/SIGINT writes a snapshot to %s\n", path)
	horizon := fr.Progress().DurationSec
	slice := horizon / 64
	for !fr.Done() {
		select {
		case <-sig:
			snap, err := fr.Snapshot()
			if err != nil {
				return nil, err
			}
			data, err := json.Marshal(snap)
			if err != nil {
				return nil, err
			}
			if err := fsutil.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
				return nil, err
			}
			fmt.Printf("interrupted at t=%.0fs; snapshot written to %s (resume with -resume -checkpoint %s)\n",
				fr.Now(), path, path)
			return nil, nil
		default:
		}
		if err := fr.Advance(ctx, fr.Now()+slice); err != nil {
			return nil, err
		}
		if err := mw.writeRows(fr.DrainMetrics()); err != nil {
			return nil, err
		}
	}
	rep, err := fr.Finish(ctx)
	if err != nil {
		return nil, err
	}
	if err := mw.writeRows(fr.DrainMetrics()); err != nil {
		return nil, err
	}
	return rep, nil
}

func printComparison(reports []*pond.FleetReport) {
	fmt.Printf("  %-10s %9s %9s %12s %12s %12s\n",
		"topology", "placed", "rejected", "core-util", "stranded-GB", "blast-vms")
	for _, r := range reports {
		fmt.Printf("  %-10s %9d %9d %11.1f%% %12.1f %12d\n",
			r.Topology, r.Placed, r.Rejected, 100*r.AvgCoreUtil, r.AvgStrandedGB, r.BlastVMs)
	}
}

// modelDump is the -models file schema: per-topology versioned model
// snapshots (per cell under cell scope, the release train under fleet
// scope).
type modelDump struct {
	Topology string            `json:"topology"`
	Cells    []json.RawMessage `json:"cells"`
}

func writeModels(path string, names []string, reports []*pond.FleetReport) error {
	dumps := make([]modelDump, 0, len(reports))
	for i, r := range reports {
		dumps = append(dumps, modelDump{Topology: strings.TrimSpace(names[i]), Cells: r.ModelsJSON})
	}
	data, err := json.MarshalIndent(dumps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
