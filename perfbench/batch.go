package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pond"
)

// Every timed operation starts from a collected heap (runtime.GC
// before the clock starts), so one iteration's garbage does not tax the
// next and the peak resident set does not depend on GC timing.
const (
	// batchSeeds is how many simulator seeds a batch invocation cycles
	// its RunFleet calls through. The simulated outcome of one seed
	// swings with discrete events (an EMC failure's blast radius, a
	// canary rolled back or promoted); reporting over several keeps
	// invocations with different benchmark seeds comparable.
	batchSeeds = 8
	// tracedSlices is how many Advance calls a traced run is cut into.
	tracedSlices = 64
)

// runBatch drives a batch workload (churn, release-train). Untraced it
// times repeated RunFleet calls, each after two set-ups (StartFleet) and
// a checkpoint/restore cycle of a run paused at a quarter of its
// horizon, so every series samples the whole window. Traced it makes
// sliced StartFleet/Advance/Finish runs under the phase hook.
//
// The timed runs use one engine worker. On a shared two-vCPU machine a
// run that needs both vCPUs at once swings 10-20% between invocations
// with the neighbours' load, while a one-worker run repeats within 1%;
// engine scaling is measured apart, as engine.parallel_eff.
func runBatch(b *bench) error {
	opts := make([]pond.FleetOpts, batchSeeds)
	for k := range opts {
		opts[k] = batchOpts(b.wl.name, b.seed, b.sz, k)
		opts[k].Engine.Workers = 1
	}
	if b.tr != nil {
		return b.batchTraced(opts[0])
	}
	setup := func(k int) error {
		_, err := pond.StartFleet(b.ctx, opts[k])
		return err
	}
	// One untimed call first: the first RunFleet in a process grows the
	// heap from nothing and runs measurably slower than every later one.
	if _, err := pond.RunFleet(b.ctx, opts[0]); b.op(err) != nil {
		return err
	}
	p, err := b.pause(opts[0])
	if err != nil {
		return err
	}
	start := time.Now()
	refs := make([]*pond.FleetReport, batchSeeds)
	var times, rates []float64
	for i := 0; i < batchSeeds || b.timeLeft(start); i++ {
		b.timeSetup(setup, 2*i)
		b.timeSetup(setup, 2*i+1)
		b.restartCycle(p)
		k := i % batchSeeds
		runtime.GC()
		t0 := time.Now()
		rep, err := pond.RunFleet(b.ctx, opts[k])
		d := time.Since(t0).Seconds()
		if b.op(err) != nil {
			continue
		}
		times = append(times, d)
		rates = append(rates, float64(rep.Placed)/d)
		if refs[k] == nil {
			refs[k] = rep
			b.checkReport(rep)
			continue
		}
		b.check(rep.LogSHA256 == refs[k].LogSHA256, "RunFleet call %d: log sha %s != the same seed's first call %s", i, rep.LogSHA256, refs[k].LogSHA256)
	}
	var share float64
	var qos, departed int
	for _, rep := range refs {
		if rep == nil {
			return fmt.Errorf("%s: RunFleet failed on a seed", b.wl.name)
		}
		share += rep.PoolShare
		qos += rep.QoSViolations
		departed += rep.Departed
	}
	fmt.Fprintf(b.log, "%s: %d RunFleet calls over %d seeds %.4f s, first seed placed=%d events=%d log_sha256=%s\n",
		b.wl.name, len(times), batchSeeds, times, refs[0].Placed, strings.Count(refs[0].EventLog, "\n"), refs[0].LogSHA256)
	if p.fr != nil {
		rep, err := p.fr.Finish(b.ctx)
		if b.op(err) == nil {
			b.check(rep.LogSHA256 == refs[0].LogSHA256, "run restored %d times at a quarter horizon: log sha %s != uninterrupted %s",
				len(p.secs), rep.LogSHA256, refs[0].LogSHA256)
		}
	}
	if len(p.secs) == 0 {
		return fmt.Errorf("%s: no checkpoint/restore cycle completed", b.wl.name)
	}
	fmt.Fprintf(b.log, "%s: restart samples %.4f s, checkpoint %.2f MB\n", b.wl.name, p.secs, p.sizes)

	b.set("restart_s", median(p.secs))
	b.set("checkpoint_mb", median(p.sizes))
	b.set("vms_per_s", median(rates))
	b.set("run_to_report_s.p50", median(times))
	b.set("run_to_report_s.p90", quantile(times, 0.9))
	b.set("pool_share_pct", 100*share/batchSeeds)
	b.set("qos_violation_pct", pct(float64(qos), float64(departed)))
	return nil
}

// timeSetup times one set-up on simulator seed k mod batchSeeds (set-up
// trains a forest whose size depends on the seed). The median of the
// samples, taken over the whole window, is setup_s.
func (b *bench) timeSetup(setup func(k int) error, k int) {
	runtime.GC()
	t0 := time.Now()
	err := setup(k % batchSeeds)
	d := time.Since(t0).Seconds()
	if b.op(err) == nil {
		b.setups = append(b.setups, d)
	}
}

// checkReport checks a finished run's internal consistency and records
// its hash as a determinism witness.
func (b *bench) checkReport(rep *pond.FleetReport) {
	b.hashes = append(b.hashes, rep.LogSHA256)
	b.check(rep.Placed > 0 && rep.Placed+rep.Rejected == rep.Arrivals,
		"placed %d + rejected %d != arrivals %d", rep.Placed, rep.Rejected, rep.Arrivals)
	b.check(pond.EventLogSHA256(rep.EventLog, b.sz.Cells) == rep.LogSHA256,
		"event log does not hash to the reported sha")
}

// pausedRun is the run the batch restart cycles move: one seed's run
// paused at a quarter of its horizon. Each cycle starts from the run the
// previous one restored, so every cycle moves the same state; fr is nil
// once a cycle has failed.
type pausedRun struct {
	fr          *pond.FleetRun
	path        string
	secs, sizes []float64
}

func (b *bench) pause(opts pond.FleetOpts) (*pausedRun, error) {
	fr, err := pond.StartFleet(b.ctx, opts)
	if b.op(err) != nil {
		return nil, err
	}
	if err := b.op(fr.Advance(b.ctx, fr.Progress().DurationSec/4)); err != nil {
		return nil, err
	}
	return &pausedRun{fr: fr, path: filepath.Join(b.out, b.wl.name+"-checkpoint.json")}, nil
}

// restartCycle times one snapshot, JSON file write, read and
// RestoreFleet of the paused run — the pondfleet -checkpoint/-resume
// cycle, whose snapshot carries the undrained event log.
func (b *bench) restartCycle(p *pausedRun) {
	if p.fr == nil {
		return
	}
	runtime.GC()
	t0 := time.Now()
	restored, n, err := b.checkpointRestore(p.fr, p.path, "restart", -1)
	d := time.Since(t0).Seconds()
	p.fr = restored
	if b.op(err) != nil {
		p.fr = nil
		return
	}
	p.secs = append(p.secs, d)
	p.sizes = append(p.sizes, float64(n)/(1<<20))
}

// checkpointRestore writes fr's snapshot to path as JSON and restores a
// new run from the file, tracing the two halves as fleet.snapshot and
// fleet.restore under parent. It returns the snapshot's size in bytes.
func (b *bench) checkpointRestore(fr *pond.FleetRun, path, run string, parent int) (*pond.FleetRun, int, error) {
	sp := b.tr.begin("fleet.snapshot", run, parent)
	snap, err := fr.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, 0, err
	}
	b.tr.end(sp, int64(len(data)))
	sp = b.tr.begin("fleet.restore", run, parent)
	defer b.tr.end(sp, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var back pond.FleetSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		return nil, 0, err
	}
	r, err := pond.RestoreFleet(b.ctx, &back)
	return r, len(data), err
}

// batchTraced repeats sets of runs until the window closes: an
// untraced RunFleet (the reference hash and the untraced speed), a
// traced sliced run at workers=1 — the configuration the end-to-end
// metrics time — and, for engine.parallel_eff, one at workers=nproc.
// Every traced run must reproduce the reference hash. Per-layer metrics
// are per traced workers=1 run.
func (b *bench) batchTraced(opts pond.FleetOpts) error {
	counts := []int{1}
	if b.workers > 1 {
		counts = append(counts, b.workers)
	}
	start := time.Now()
	var ref *pond.FleetReport
	var untraced, traced []float64
	sets := 0
	for sets == 0 || b.timeLeft(start) {
		runtime.GC()
		t0 := time.Now()
		rep, err := pond.RunFleet(b.ctx, opts)
		d := time.Since(t0).Seconds()
		if b.op(err) != nil {
			return fmt.Errorf("%s: reference RunFleet: %w", b.wl.name, err)
		}
		if ref == nil {
			ref = rep
			b.checkReport(rep)
		}
		untraced = append(untraced, d)
		for _, w := range counts {
			o := opts
			o.Engine.Workers = w
			run := fmt.Sprintf("w%d.%d", w, sets)
			trep, secs, err := b.tracedPass(o, run)
			if b.op(err) != nil {
				continue
			}
			b.check(trep.LogSHA256 == ref.LogSHA256, "traced sliced run at workers=%d: log sha %s != untraced RunFleet %s",
				w, trep.LogSHA256, ref.LogSHA256)
			if w == 1 {
				traced = append(traced, secs)
			}
		}
		sets++
	}

	n := float64(sets)
	events := float64(ref.Arrivals + ref.Departed)
	st := b.tr.stats("fleet.setup", "w1.")
	b.set("fleet.setup.s", median(st.durs))
	b.set("fleet.setup.allocs", float64(st.allocs)/float64(max(st.count, 1)))
	adv := b.setSpanMetrics("fleet.advance", "w1.", sets)
	b.set("fleet.advance.us_per_event", 1e6*adv.secs/(n*events))
	b.set("fleet.advance.allocs_per_event", float64(adv.allocs)/(n*events))
	wide := b.tr.stats("fleet.advance", fmt.Sprintf("w%d.", b.workers))
	b.set("engine.parallel_eff", adv.secs/(float64(b.workers)*wide.secs))
	b.setCounts(ref.Arrivals, ref.Placed, ref.Rejected, strings.Count(ref.EventLog, "\n"), len(ref.EventLog))

	rt := b.setSpanMetrics("mlops.retrain", "w1.", sets)
	b.set("mlops.retrain.s.p50", median(rt.durs))
	b.set("mlops.retrain.allocs", float64(rt.allocs)/n)
	b.set("mlops.retrains", float64(ref.Retrains))
	b.set("mlops.promotions", float64(ref.Promotions))
	b.set("mlops.rollbacks", float64(ref.Rollbacks))
	b.set("mlops.promote_ratio", ratio(ref.Promotions, ref.Retrains))

	b.setSpanMetrics("capacity.plan", "w1.", sets)
	b.setCapacity(ref.Fallbacks, ref.Placed, float64(ref.FinalPoolGB))

	fin := b.tr.stats("fleet.finish", "w1.")
	b.set("fleet.finish.s", fin.secs/n)
	b.set("fleet.finish.allocs", float64(fin.allocs)/n)
	b.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1))
	return nil
}

// tracedPass runs opts through StartFleet, tracedSlices Advance calls
// and Finish under the phase hook, as one trace.pass root span.
func (b *bench) tracedPass(opts pond.FleetOpts, run string) (*pond.FleetReport, float64, error) {
	runtime.GC()
	t0 := time.Now()
	root := b.tr.begin("trace.pass", run, -1)
	defer b.tr.end(root, 0)
	sp := b.tr.begin("fleet.setup", run, root)
	fr, err := pond.StartFleet(b.ctx, opts)
	b.tr.end(sp, 0)
	if err != nil {
		return nil, 0, err
	}
	fr.SetPhaseHook(b.tr.hook(run, root))
	horizon := fr.Progress().DurationSec
	for i := 1; i <= tracedSlices; i++ {
		b.tr.markAllocs()
		if err := fr.Advance(b.ctx, horizon*float64(i)/tracedSlices); err != nil {
			return nil, 0, err
		}
	}
	b.tr.markAllocs()
	rep, err := fr.Finish(b.ctx)
	return rep, time.Since(t0).Seconds(), err
}

// setCounts reports the exact work counts of a run.
func (b *bench) setCounts(arrivals, placed, rejected, events, logBytes int) {
	b.set("core.arrivals", float64(arrivals))
	b.set("core.placed", float64(placed))
	b.set("core.rejected", float64(rejected))
	b.set("core.admit_ratio", ratio(placed, arrivals))
	b.set("fleet.events", float64(events))
	b.set("fleet.log_bytes", float64(logBytes))
}

func (b *bench) setCapacity(fallbacks, placed int, finalPoolGB float64) {
	b.set("capacity.fallbacks", float64(fallbacks))
	b.set("capacity.fallback_ratio", ratio(fallbacks, placed))
	b.set("capacity.final_pool_gb", finalPoolGB)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
