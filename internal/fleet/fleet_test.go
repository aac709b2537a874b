package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"pond/internal/capacity"
	"pond/internal/mlops"
	"pond/internal/mlops/fleetpipeline"
)

// testOptions returns a small fleet that exercises every event kind in a
// few hundred milliseconds of wall clock.
func testOptions() Options {
	o := DefaultOptions()
	o.Cluster.Cells = 3
	o.Cluster.Hosts = 4
	o.Cluster.EMCs = 4
	o.Cluster.PoolGB = 64
	o.Cluster.DurationSec = 400
	o.Arrivals = ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.1, MeanLifetimeSec: 200}
	o.Model.Disabled = true // skip forest training in the fast tier
	return o
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	base := testOptions()
	inj, err := ParseInjections("surge@t=50:dur=100:x=3,emc-fail@t=200,host-drain@t=300:host=1")
	if err != nil {
		t.Fatal(err)
	}
	base.Injections = inj

	var logs []string
	var hashes []string
	for _, workers := range []int{1, 3, 8} {
		o := base
		o.Engine.Workers = workers
		rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		logs = append(logs, rep.EventLog)
		hashes = append(hashes, rep.LogSHA256)
	}
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] {
			t.Fatalf("event log differs between worker counts 1 and %d", []int{1, 3, 8}[i])
		}
		if hashes[i] != hashes[0] {
			t.Fatalf("log hash differs between worker counts")
		}
	}
	if len(logs[0]) == 0 {
		t.Fatal("empty event log")
	}
}

func TestRunSeedChangesLog(t *testing.T) {
	o := testOptions()
	a, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Engine.Seed = 99
	b, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.LogSHA256 == b.LogSHA256 {
		t.Fatal("different seeds produced identical event logs")
	}
}

func TestInjectionsAppearInLog(t *testing.T) {
	o := testOptions()
	var err error
	o.Injections, err = ParseInjections("emc-fail@t=100:emc=2,host-drain@t=150:host=0,surge@t=10:dur=50:x=4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"inject emc-fail emc=2 blast-hosts=",
		"inject host-drain host=0 migrated=",
		"inject surge x=4 dur=50",
	} {
		if !strings.Contains(rep.EventLog, want) {
			t.Fatalf("event log missing %q", want)
		}
	}
	// Surge must actually raise the arrival count versus no injection.
	o2 := testOptions()
	base, err := Run(context.Background(), o2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals <= base.Arrivals {
		t.Fatalf("surge did not add arrivals: %d vs %d", rep.Arrivals, base.Arrivals)
	}
}

func TestEMCFailBoundsBlastRadiusByTopology(t *testing.T) {
	// Under sharded, EMC 0 serves exactly hosts 0..Hosts/EMCs-1; the
	// blast-hosts count in the log must reflect that, not the full fleet.
	o := testOptions()
	o.Cluster.Topology = "sharded"
	var err error
	o.Injections, err = ParseInjections("emc-fail@t=200")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.EventLog, "inject emc-fail emc=0 blast-hosts=1 ") {
		t.Fatalf("sharded 4x4 blast radius should be 1 host; log: %s",
			grepLine(rep.EventLog, "emc-fail"))
	}
}

func TestTraceArrivals(t *testing.T) {
	o := testOptions()
	o.Arrivals = ArrivalOpts{Process: ArrivalTrace}
	o.Cluster.DurationSec = 2000
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals == 0 {
		t.Fatal("trace arrivals produced no VMs")
	}
	if rep.Placed == 0 {
		t.Fatal("trace arrivals placed no VMs")
	}
}

// TestTraceArrivalCapSizedFromTheTrace: a trace never draws at
// Arrivals.RatePerSec, so a large Poisson rate left in a trace config
// must not trip the per-cell arrival cap, while surge extras that
// overflow it still must. The trace estimate bounds the streams the
// generator really produces.
func TestTraceArrivalCapSizedFromTheTrace(t *testing.T) {
	o := Options{
		Cluster:  ClusterOpts{Cells: 1, DurationSec: 2000},
		Arrivals: ArrivalOpts{Process: ArrivalTrace, RatePerSec: 1000},
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("trace config refused for its unused Poisson rate: %v", err)
	}
	var err error
	if o.Injections, err = ParseInjections("surge@t=200:dur=100:x=1e300"); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("trace surge past the arrival cap: err = %v, want the cap named", err)
	}
	// A short horizon often ends before the trace's first burst. Such a
	// cell's surge has no trace rate to scale from and must draw nothing,
	// never fall back to the unused Poisson rate.
	if o.Injections, err = ParseInjections("surge@t=0:dur=2000:x=2"); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("trace surge refused for the unused Poisson rate: %v", err)
	}
	if o, err = normalize(o); err != nil {
		t.Fatal(err)
	}
	bare := o
	bare.Injections = nil
	seed := int64(1)
	for ; len(generateArrivals(bare, 0, seed)) > 0; seed++ {
		if seed == 20 {
			t.Fatal("no seed left the 2000 s trace empty; the case above checks nothing")
		}
	}
	if n := len(generateArrivals(o, 0, seed)); n != 0 {
		t.Errorf("seed %d: empty trace drew %d surge VMs, estimate %.0f", seed, n, expectedArrivals(o))
	}
	for _, hosts := range []int{4, 16} {
		o := testOptions()
		o.Arrivals = ArrivalOpts{Process: ArrivalTrace}
		o.Cluster.Hosts = hosts
		o.Cluster.DurationSec = 3 * 86400
		if o.Injections, err = ParseInjections("surge@t=1000:dur=20000:x=3"); err != nil {
			t.Fatal(err)
		}
		if o, err = normalize(o); err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < o.Cluster.Cells; cell++ {
			n := len(generateArrivals(o, cell, int64(7+cell)))
			if n == 0 || float64(n) > expectedArrivals(o) {
				t.Errorf("%d hosts, cell %d: trace stream of %d VMs, estimate %.0f", hosts, cell, n, expectedArrivals(o))
			}
		}
	}
}

func TestTopologiesDifferInOutcome(t *testing.T) {
	// Flat and sharded connectivity must produce different pool behaviour
	// for the same stream once pool memory is scarce.
	o := testOptions()
	o.Model.Disabled = false
	o.Cluster.PoolGB = 16
	o.Arrivals.RatePerSec = 0.2
	flat, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cluster.Topology = "sharded"
	sharded, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if flat.LogSHA256 == sharded.LogSHA256 {
		t.Fatal("flat and sharded topologies produced identical event logs")
	}
}

func TestNormalizeRejectsBadOptions(t *testing.T) {
	o := DefaultOptions()
	o.Cluster.Topology = "moebius"
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("unknown topology should fail")
	}

	o = DefaultOptions()
	o.Injections = []Injection{{kind: InjectEMCFail, atSec: 1, emc: 99}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("out-of-range EMC injection should fail")
	}

	o = DefaultOptions()
	o.Injections = []Injection{{kind: InjectHostDrain, atSec: 1, host: 99}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("out-of-range host injection should fail")
	}
}

func grepLine(log, substr string) string {
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

func TestParseArrival(t *testing.T) {
	m, err := ParseArrival("poisson:rate=0.5:life=120")
	if err != nil {
		t.Fatal(err)
	}
	if m.RatePerSec != 0.5 || m.MeanLifetimeSec != 120 {
		t.Fatalf("parsed %+v", m)
	}
	if m2, err := ParseArrival(""); err != nil || m2 != DefaultOptions().Arrivals {
		t.Fatalf("empty spec should be the default, got %+v (%v)", m2, err)
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Fatal("unknown model should fail")
	}
	if _, err := ParseArrival("poisson:rate=-1"); err == nil {
		t.Fatal("negative rate should fail")
	}
	if _, err := ParseArrival("poisson:burst=3"); err == nil {
		t.Fatal("unknown parameter should fail")
	}
	if _, err := ParseArrival("trace:rate=1"); err == nil {
		t.Fatal("trace with parameters should fail")
	}
}

func TestParseInjections(t *testing.T) {
	ins, err := ParseInjections("emc-fail@t=500, host-drain@t=800:host=2, surge@t=300:dur=200:x=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("parsed %d injections", len(ins))
	}
	if ins[0].kind != InjectEMCFail || ins[0].atSec != 500 || ins[0].emc != 0 {
		t.Fatalf("emc-fail parsed as %+v", ins[0])
	}
	if ins[1].host != 2 {
		t.Fatalf("host-drain parsed as %+v", ins[1])
	}
	if ins[2].durSec != 200 || ins[2].factor != 3 {
		t.Fatalf("surge parsed as %+v", ins[2])
	}
	for _, bad := range []string{
		"meteor@t=1", "emc-fail", "emc-fail@500", "emc-fail@t=abc",
		"surge@t=1:x=0.5", "emc-fail@t=1:emc=-1", "emc-fail@t=1:zap=2",
	} {
		if _, err := ParseInjections(bad); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
	if ins, err := ParseInjections(""); err != nil || ins != nil {
		t.Fatal("empty spec should parse to nil")
	}
}

func TestInjectionBeyondHorizonRejected(t *testing.T) {
	o := testOptions()
	var err error
	o.Injections, err = ParseInjections("emc-fail@t=500")
	if err != nil {
		t.Fatal(err)
	}
	o.Cluster.DurationSec = 400
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("injection after the horizon should be rejected")
	}
}

func TestEMCFailStopsServingCapacity(t *testing.T) {
	// After the failure the dead EMC must contribute nothing: with all
	// pool capacity on one EMC under sharded-per-host connectivity is
	// overkill; just assert the run completes and blast VMs were lost
	// while later placements still succeed.
	o := testOptions()
	o.Model.Disabled = false
	var err error
	o.Injections, err = ParseInjections("emc-fail@t=100")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placed == 0 || rep.Departed == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
}

func TestNormalizeRejectsNegativeInjectionTargets(t *testing.T) {
	o := testOptions()
	o.Injections = []Injection{{kind: InjectEMCFail, atSec: 1, emc: -1}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("negative EMC index should fail, not panic mid-run")
	}
	o = testOptions()
	o.Injections = []Injection{{kind: InjectHostDrain, atSec: 1, host: -1}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("negative host index should fail")
	}
}

func TestNormalizeKeepsPartialArrival(t *testing.T) {
	// Setting only RatePerSec (Process left empty) must not be silently
	// reset to the default rate.
	o := testOptions()
	o.Arrivals = ArrivalOpts{RatePerSec: 0.3}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Options.Arrivals; got.Process != ArrivalPoisson || got.RatePerSec != 0.3 {
		t.Fatalf("normalized arrival = %+v, want poisson at rate 0.3", got)
	}
}

// retrainOptions is the drift scenario used by the retraining tests: a
// mid-run tenant-population shift with the lifecycle loop enabled.
func retrainOptions() Options {
	o := DefaultOptions()
	o.Cluster.Cells = 2
	o.Cluster.Hosts = 4
	o.Cluster.EMCs = 4
	o.Cluster.PoolGB = 128
	o.Cluster.DurationSec = 6000
	o.Engine.Seed = 2
	o.Arrivals = ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.15, MeanLifetimeSec: 300}
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 400
	inj, err := ParseInjections("drift@t=2500:mag=0.6")
	if err != nil {
		panic(err)
	}
	o.Injections = inj
	return o
}

func TestRetrainDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("retrain determinism needs the full horizon; covered in the full tier")
	}
	base := retrainOptions()
	base.Cluster.DurationSec = 3000
	base.Injections[0].atSec = 1500

	var logs, hashes []string
	for _, workers := range []int{1, 3, 8} {
		o := base
		o.Engine.Workers = workers
		rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		logs = append(logs, rep.EventLog)
		hashes = append(hashes, rep.LogSHA256)
	}
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] || hashes[i] != hashes[0] {
			t.Fatalf("retrain-enabled event log differs between worker counts 1 and %d", []int{1, 3, 8}[i])
		}
	}
	// Promotion events are part of the deterministic log.
	for _, want := range []string{"mlops um retrain", "mlops um promote", "inject drift mag=0.6"} {
		if !strings.Contains(logs[0], want) {
			t.Fatalf("event log missing %q", want)
		}
	}
}

func TestDriftRetrainingBeatsFrozenModels(t *testing.T) {
	if testing.Short() {
		t.Skip("drift A/B needs the full horizon; covered in the full tier")
	}
	o := retrainOptions()
	frozen := o
	frozen.Model.RetrainEverySec = 0
	fr, err := Run(context.Background(), frozen)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Promotions == 0 {
		t.Fatal("no promotions happened; the lifecycle never engaged")
	}
	// End-of-run prediction error must be strictly better with
	// retraining: the frozen champion is stale after the drift.
	if lr.PredErrFinal >= fr.PredErrFinal {
		t.Fatalf("retrained end-of-run prediction error %.4f not better than frozen %.4f",
			lr.PredErrFinal, fr.PredErrFinal)
	}
	// And the operational metrics must not regress: QoS strictly no
	// worse, stranding within measurement noise (stranded GB counts free
	// local memory behind exhausted cores, so small pool-share changes
	// move it by fractions of a percent in either direction).
	if lr.QoSViolations > fr.QoSViolations {
		t.Fatalf("retraining worsened QoS: %d vs %d violations", lr.QoSViolations, fr.QoSViolations)
	}
	if lr.Rejected > fr.Rejected {
		t.Fatalf("retraining worsened admission: %d vs %d rejections", lr.Rejected, fr.Rejected)
	}
	if lr.AvgStrandedGB > fr.AvgStrandedGB*1.01 {
		t.Fatalf("retraining worsened stranding beyond noise: %.2f vs %.2f GB",
			lr.AvgStrandedGB, fr.AvgStrandedGB)
	}
	// The report must surface the lifecycle.
	if lr.Retrains == 0 || len(lr.Lifecycle) == 0 {
		t.Fatalf("lifecycle missing from report: %+v", lr.Lifecycle)
	}
}

func TestDriftInjectionShiftsArrivals(t *testing.T) {
	o := testOptions()
	base, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Injections, err = ParseInjections("drift@t=200:mag=0.8")
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(drifted.EventLog, "inject drift mag=0.8") {
		t.Fatal("drift injection missing from event log")
	}
	if base.LogSHA256 == drifted.LogSHA256 {
		t.Fatal("drift did not change the event stream")
	}
}

func TestDriftAppliesToTraceArrivals(t *testing.T) {
	o := testOptions()
	o.Arrivals = ArrivalOpts{Process: ArrivalTrace}
	o.Cluster.DurationSec = 2000
	base, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Injections, err = ParseInjections("drift@t=1000:mag=0.7")
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if base.LogSHA256 == drifted.LogSHA256 {
		t.Fatal("drift did not alter the trace-derived stream")
	}
}

func TestRetrainRequiresPredictions(t *testing.T) {
	o := testOptions() // predictions disabled
	o.Model.RetrainEverySec = 100
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("retraining without predictions should be rejected")
	}
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = -5
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("negative retrain interval should be rejected")
	}
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 100
	o.Model.PromoteMargin = 1.5
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("promotion margin >= 1 should be rejected")
	}
}

func TestCaptureModelsDumpsSnapshots(t *testing.T) {
	o := testOptions()
	o.Model.Disabled = false
	o.Cluster.DurationSec = 800
	o.Arrivals.RatePerSec = 0.2
	o.Model.RetrainEverySec = 200
	o.Model.MinTrainRows = 16
	o.Model.Capture = true
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ModelDumps) != o.Cluster.Cells {
		t.Fatalf("got %d model dumps for %d cells", len(rep.ModelDumps), o.Cluster.Cells)
	}
	var snaps []map[string]any
	if err := json.Unmarshal(rep.ModelDumps[0], &snaps); err != nil {
		t.Fatalf("cell dump is not valid JSON: %v", err)
	}
	if len(snaps) == 0 {
		t.Fatal("cell dump holds no models")
	}
	if snaps[0]["role"] != "champion" {
		t.Fatalf("first snapshot is %v, want the champion", snaps[0]["role"])
	}
}

// fleetScopeOptions is the staged-rollout scenario shared by the fleet
// acceptance tests: four cells with the central pipeline retraining at a
// 400 s cadence.
func fleetScopeOptions() Options {
	o := DefaultOptions()
	o.Cluster.Cells = 4
	o.Cluster.Hosts = 4
	o.Cluster.EMCs = 4
	o.Cluster.PoolGB = 128
	o.Cluster.DurationSec = 6000
	o.Engine.Seed = 2
	o.Arrivals = ArrivalOpts{Process: ArrivalPoisson, RatePerSec: 0.15, MeanLifetimeSec: 300}
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 400
	o.Model.Scope = ScopeFleet
	return o
}

func TestStagedRolloutContainsBadChallengerUnderRegionalDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("staged-rollout acceptance needs the full horizon; covered in the full tier")
	}
	// Regional drift hits only cells 2-3: challengers trained after
	// t=2500 learn from a corpus polluted by the drifted region, and the
	// canary bake on (undrifted) cell 0 must catch the bad ones.
	base := fleetScopeOptions()
	var err error
	base.Injections, err = ParseInjections("drift@t=2500:cells=2-3:mag=0.9")
	if err != nil {
		t.Fatal(err)
	}

	var reps []*Report
	for _, workers := range []int{1, 4, 8} {
		o := base
		o.Engine.Workers = workers
		rep, rerr := Run(context.Background(), o)
		if rerr != nil {
			t.Fatalf("workers=%d: %v", workers, rerr)
		}
		reps = append(reps, rep)
	}
	// The event log — stage transitions included — and the rollout
	// history are byte-identical for every worker count.
	for i := 1; i < len(reps); i++ {
		if reps[i].EventLog != reps[0].EventLog || reps[i].LogSHA256 != reps[0].LogSHA256 {
			t.Fatalf("fleet-scoped event log differs between worker counts 1 and %d", []int{1, 4, 8}[i])
		}
		if len(reps[i].Rollout) != len(reps[0].Rollout) {
			t.Fatal("rollout history length differs between worker counts")
		}
		for j := range reps[i].Rollout {
			if reps[i].Rollout[j] != reps[0].Rollout[j] {
				t.Fatalf("rollout history differs at step %d between worker counts", j)
			}
		}
	}
	rep := reps[0]

	// The canary bake must have rolled back at least one challenger
	// trained during the partial-fleet regime (after the drift).
	trainedAt := map[int]float64{}
	for _, e := range rep.Rollout {
		if e.Kind == fleetpipeline.EventRetrain {
			trainedAt[e.Ver] = e.AtSec
		}
	}
	var rolledBack []int
	postDriftRollback := false
	for _, e := range rep.Rollout {
		if e.Kind == fleetpipeline.EventRollback {
			rolledBack = append(rolledBack, e.Ver)
			if trainedAt[e.Ver] >= 2500 {
				postDriftRollback = true
			}
		}
	}
	if len(rolledBack) == 0 {
		t.Fatal("no challenger was ever rolled back")
	}
	if !postDriftRollback {
		t.Fatalf("no rollback of a challenger trained during the drifted regime; rollbacks: %v, trained at: %v",
			rolledBack, trainedAt)
	}

	// Containment: zero non-canary cells ever served a rolled-back
	// release. Canary sets are the lowest cell indices, so every cell
	// beyond the canary fraction must have served promoted versions only.
	canary := map[int]bool{}
	for _, e := range rep.Rollout {
		if e.Kind == fleetpipeline.EventCanaryStart {
			for c := e.CanaryLo; c <= e.CanaryHi; c++ {
				canary[c] = true
			}
		}
	}
	bad := map[int]bool{}
	for _, v := range rolledBack {
		bad[v] = true
	}
	for _, c := range rep.Cells {
		if canary[c.Cell] {
			continue
		}
		for _, v := range c.ServedVersions {
			if bad[v] {
				t.Fatalf("non-canary cell %d served rolled-back release %d (served %v)", c.Cell, v, c.ServedVersions)
			}
		}
	}
	// And the containment must be visible in the event log itself: pin
	// lines for rolled-back versions appear only under canary cells.
	for _, v := range rolledBack {
		for _, line := range strings.Split(rep.EventLog, "\n") {
			if !strings.Contains(line, fmt.Sprintf("fleetpipeline pin ver=%d ", v)) {
				continue
			}
			isCanaryLine := false
			for c := range canary {
				if strings.HasPrefix(line, fmt.Sprintf("[c%d ", c)) {
					isCanaryLine = true
				}
			}
			if !isCanaryLine {
				t.Fatalf("rolled-back release %d pinned outside the canary set: %s", v, line)
			}
		}
	}
}

func TestFleetScopeNoWorseThanCellScopeUnderUniformDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-vs-cell A/B needs the full horizon; covered in the full tier")
	}
	inj, err := ParseInjections("drift@t=2500:mag=0.6")
	if err != nil {
		t.Fatal(err)
	}
	cell := fleetScopeOptions()
	cell.Model.Scope = ScopeCell
	cell.Injections = inj
	cr, err := Run(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	fl := fleetScopeOptions()
	fl.Injections = inj
	fr, err := Run(context.Background(), fl)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Promotions == 0 {
		t.Fatal("the release train never promoted; the fleet pipeline never engaged")
	}
	// Pooling telemetry across cells gives the fleet champion more
	// post-drift rows than any single cell sees: end-of-run prediction
	// error must be no worse than the per-cell lifecycle's.
	if fr.PredErrFinal > cr.PredErrFinal {
		t.Fatalf("fleet-scoped end-of-run prediction error %.4f worse than cell-scoped %.4f",
			fr.PredErrFinal, cr.PredErrFinal)
	}
	if fr.PredErrMean > cr.PredErrMean {
		t.Fatalf("fleet-scoped whole-run prediction error %.4f worse than cell-scoped %.4f",
			fr.PredErrMean, cr.PredErrMean)
	}
	// Admission must not regress either.
	if fr.Rejected > cr.Rejected {
		t.Fatalf("fleet scope worsened admission: %d vs %d rejections", fr.Rejected, cr.Rejected)
	}
}

func TestFleetScopeSmoke(t *testing.T) {
	// Short-tier sanity: the barrier loop runs, pins appear in the log,
	// and the fleet summary line lands at the end of the event log.
	o := testOptions()
	o.Model.Disabled = false
	o.Cluster.DurationSec = 800
	o.Arrivals.RatePerSec = 0.2
	o.Model.RetrainEverySec = 200
	o.Model.MinTrainRows = 16
	o.Model.Scope = ScopeFleet
	o.Model.Capture = true
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retrains == 0 {
		t.Fatal("fleet pipeline never trained")
	}
	if !strings.Contains(rep.EventLog, "fleetpipeline retrain ver=1") ||
		!strings.Contains(rep.EventLog, "fleetpipeline pin ver=1 role=canary") {
		t.Fatalf("fleet log missing rollout markers:\n%s", grepLine(rep.EventLog, "fleetpipeline"))
	}
	if !strings.Contains(rep.EventLog, "[fleet t=800.000] fleetpipeline summary") {
		t.Fatal("fleet summary line missing")
	}
	// One release-train dump, not one per cell.
	if len(rep.ModelDumps) != 1 {
		t.Fatalf("got %d model dumps, want 1 release-train dump", len(rep.ModelDumps))
	}
	var snaps []map[string]any
	if err := json.Unmarshal(rep.ModelDumps[0], &snaps); err != nil || len(snaps) == 0 {
		t.Fatalf("release-train dump unreadable: %v", err)
	}
	if snaps[0]["role"] != "champion" || snaps[0]["cell"] != float64(-1) {
		t.Fatalf("first snapshot = %v, want the fleet champion (cell -1)", snaps[0])
	}
	// Every cell starts on the bootstrap release.
	for _, c := range rep.Cells {
		if len(c.ServedVersions) == 0 || c.ServedVersions[0] != 0 {
			t.Fatalf("cell %d served versions %v, want bootstrap first", c.Cell, c.ServedVersions)
		}
	}
}

func TestFleetScopeValidation(t *testing.T) {
	o := testOptions() // predictions disabled
	o.Model.Scope = ScopeFleet
	o.Model.Disabled = false
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("fleet scope without retraining should be rejected")
	}
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 100
	o.Model.Scope = "galaxy"
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("unknown model scope should be rejected")
	}
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 100
	o.Model.Scope = ScopeFleet
	o.Model.CanaryFraction = 1.5
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("canary fraction > 1 should be rejected")
	}
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 100
	o.Model.Scope = ScopeFleet
	o.Model.BakeWindowSec = -1
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("negative bake window should be rejected")
	}
	// Rollout knobs under cell scope are a configuration mistake.
	o = testOptions()
	o.Model.Disabled = false
	o.Model.RetrainEverySec = 100
	o.Model.CanaryFraction = 0.5
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("canary fraction under cell scope should be rejected")
	}
}

func TestReportHistoriesPrefixEachLine(t *testing.T) {
	lc := mlops.Event{Cell: 1, AtSec: 1000, Family: "um", Kind: "retrain", Ver: 1, Rows: 65}
	ro := fleetpipeline.Event{AtSec: 2000.5, Kind: "promote", Ver: 2}
	pl := capacity.PlanEvent{Cell: 2, AtSec: 300, PoolGB: 512, TargetGB: 20, NewPoolGB: 20, ShrunkGB: 492}
	rep := &Report{Lifecycle: []mlops.Event{lc}, Rollout: []fleetpipeline.Event{ro}, PlanHistory: []capacity.PlanEvent{pl}}
	lifecycle, rollout, plans := rep.Histories()
	for _, tc := range []struct {
		got  []string
		want string
	}{
		{lifecycle, "[c1 t=1000.000] " + lc.String()},
		{rollout, "[fleet t=2000.500] " + ro.String()},
		{plans, "[c2 t=300.000] " + pl.String()},
	} {
		if len(tc.got) != 1 || tc.got[0] != tc.want {
			t.Errorf("history %q, want [%q]", tc.got, tc.want)
		}
	}
	if l, r, p := (&Report{}).Histories(); len(l)+len(r)+len(p) != 0 {
		t.Errorf("empty report rendered histories %q %q %q", l, r, p)
	}
}

// cellStreams splits a report's EventLog back into its per-cell streams
// on the "[c<N> " line prefix, and checks each against the cell's own
// stream hash, so a comparison of streams never passes on blank ones.
func cellStreams(t *testing.T, rep *Report) []string {
	t.Helper()
	streams := make([]strings.Builder, len(rep.Cells))
	for _, line := range strings.SplitAfter(rep.EventLog, "\n") {
		if !strings.HasPrefix(line, "[c") {
			continue
		}
		if cell, ok := parseCellPrefix(line[2:]); ok {
			streams[cell].WriteString(line)
		}
	}
	out := make([]string, len(streams))
	for i := range streams {
		out[i] = streams[i].String()
		if out[i] == "" || streamSHA256(out[i]) != rep.Cells[i].LogSHA {
			t.Fatalf("cell %d: %d-byte stream split from EventLog does not hash to the cell's LogSHA", i, len(out[i]))
		}
	}
	return out
}

func TestRegionalDriftOnlyShiftsTargetCells(t *testing.T) {
	// A drift hitting cells 1-2 must change those cells' streams and
	// leave cells 0's arrivals untouched. Predictions are on so the
	// shifted ground truth actually reaches the decision log.
	o := testOptions()
	o.Model.Disabled = false
	base, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Injections, err = ParseInjections("drift@t=200:cells=1-2:mag=0.8")
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(drifted.EventLog, "inject drift mag=0.8 cells=1-2 applied=false") {
		t.Fatal("out-of-range cell missing the applied=false marker")
	}
	if !strings.Contains(drifted.EventLog, "inject drift mag=0.8 cells=1-2 applied=true") {
		t.Fatal("in-range cell missing the applied=true marker")
	}
	// Cell 0 is out of range: its arrival stream is unchanged (only the
	// injection marker line differs).
	strip := func(log string) string {
		var keep []string
		for _, l := range strings.Split(log, "\n") {
			if !strings.Contains(l, "inject drift") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	baseCells, driftedCells := cellStreams(t, base), cellStreams(t, drifted)
	if strip(baseCells[0]) != strip(driftedCells[0]) {
		t.Fatal("regional drift changed an out-of-range cell's stream")
	}
	if strip(baseCells[1]) == strip(driftedCells[1]) {
		t.Fatal("regional drift did not change an in-range cell's stream")
	}
	// Beyond-range validation.
	o.Injections, err = ParseInjections("drift@t=200:cells=2-9:mag=0.8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("cell range beyond the fleet should be rejected")
	}
}

func TestParseRegionalDrift(t *testing.T) {
	ins, err := ParseInjections("drift@t=2000:cells=2-3:mag=0.6")
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].cellLo != 2 || ins[0].cellHi != 3 || ins[0].mag != 0.6 {
		t.Fatalf("regional drift parsed as %+v", ins[0])
	}
	if got := ins[0].String(); got != "drift@t=2000:cells=2-3:mag=0.6" {
		t.Fatalf("regional drift renders as %q", got)
	}
	// Round trip.
	again, err := ParseInjections(ins[0].String())
	if err != nil || again[0] != ins[0] {
		t.Fatalf("regional drift did not round-trip: %+v (%v)", again, err)
	}
	// Single-cell form.
	ins, err = ParseInjections("drift@t=100:cells=1")
	if err != nil || ins[0].cellLo != 1 || ins[0].cellHi != 1 {
		t.Fatalf("single-cell drift parsed as %+v (%v)", ins, err)
	}
	// Fleet-wide drift keeps the legacy render and the all-cells
	// sentinel.
	ins, err = ParseInjections("drift@t=100")
	if err != nil || ins[0].cellHi >= 0 || !ins[0].AppliesTo(7) {
		t.Fatalf("fleet-wide drift parsed as %+v (%v)", ins, err)
	}
	for _, bad := range []string{
		"drift@t=1:cells=", "drift@t=1:cells=a", "drift@t=1:cells=3-1",
		"drift@t=1:cells=-1-2", "drift@t=1:cells=1-", "emc-fail@t=1:cells=0-1",
		"surge@t=1:cells=0", "drift@t=1:cells=1-2-3",
	} {
		if _, err := ParseInjections(bad); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
}

func TestParseTopologies(t *testing.T) {
	names, err := ParseTopologies("flat, sharded,sparse")
	if err != nil || len(names) != 3 || names[1] != "sharded" {
		t.Fatalf("parsed %v (%v)", names, err)
	}
	for _, bad := range []string{"", "flat,", ",flat", "flat,,sparse", "moebius", "flat sharded"} {
		if _, err := ParseTopologies(bad); err == nil {
			t.Fatalf("topology list %q should fail to parse", bad)
		}
	}
}

func TestParseDriftInjection(t *testing.T) {
	ins, err := ParseInjections("drift@t=2000:mag=0.6")
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].kind != InjectDrift || ins[0].atSec != 2000 || ins[0].mag != 0.6 {
		t.Fatalf("drift parsed as %+v", ins[0])
	}
	if ins[0].String() != "drift@t=2000:mag=0.6" {
		t.Fatalf("drift renders as %q", ins[0].String())
	}
	if ins, err := ParseInjections("drift@t=100"); err != nil || ins[0].mag != 0.5 {
		t.Fatalf("default drift magnitude = %+v (%v)", ins, err)
	}
	for _, bad := range []string{"drift@t=1:mag=0", "drift@t=1:mag=1.5", "drift@t=1:mag=-1"} {
		if _, err := ParseInjections(bad); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
}

func TestParseResizeInjection(t *testing.T) {
	ins, err := ParseInjections("resize@t=500:emc=1:slices=-8")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || ins[0].kind != InjectResize || ins[0].emc != 1 || ins[0].slices != -8 {
		t.Fatalf("parsed %+v", ins)
	}
	// String() round-trips, the explicit plus sign included.
	if s := ins[0].String(); s != "resize@t=500:emc=1:slices=-8" {
		t.Fatalf("String() = %q", s)
	}
	grow, err := ParseInjections("resize@t=1:slices=+16")
	if err != nil || grow[0].slices != 16 {
		t.Fatalf("grow spec parsed as %+v (%v)", grow, err)
	}
	if again, err := ParseInjections(grow[0].String()); err != nil || again[0] != grow[0] {
		t.Fatalf("grow spec did not round-trip via %q: %+v (%v)", grow[0].String(), again, err)
	}
	for _, bad := range []string{
		"resize@t=1",                             // missing slices
		"resize@t=1:slices=0",                    // zero delta
		"resize@t=1:slices=1.5",                  // non-integer
		"resize@t=1:dur=5:slices=4",              // inapplicable param
		"resize@t=1:mag=0.5",                     // inapplicable param
		"resize@t=1:host=2:slices=4",             // inapplicable param
		"resize@t=1:cells=0:slices=4",            // inapplicable param
		"resize@t=1:emc=-1:slices=4",             // negative target
		"resize@t=1:slices=-9223372036854775808", // negation would overflow
		"resize@t=1:slices=2000000",              // beyond MaxResizeSlices
	} {
		if _, err := ParseInjections(bad); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
}

func TestElasticValidation(t *testing.T) {
	// Elastic knobs without the elastic pool are rejected.
	o := testOptions()
	o.Capacity.PlanEverySec = 100
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("plan cadence without the elastic pool should fail")
	}
	o = testOptions()
	o.Capacity.TargetQoS = 0.05
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("QoS target without the elastic pool should fail")
	}
	// A cadence beyond the horizon never fires.
	o = testOptions()
	o.Capacity.Elastic = true
	o.Capacity.PlanEverySec = o.Cluster.DurationSec
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("plan cadence at the horizon should fail")
	}
	// Out-of-domain QoS target.
	o = testOptions()
	o.Capacity.Elastic = true
	o.Capacity.TargetQoS = 1.5
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("QoS target above 1 should fail")
	}
	// Resize injections validate the EMC range and the delta.
	o = testOptions()
	o.Injections = []Injection{{kind: InjectResize, atSec: 1, emc: 99, slices: 4, cellHi: -1}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("out-of-range resize EMC should fail")
	}
	o = testOptions()
	o.Injections = []Injection{{kind: InjectResize, atSec: 1, emc: 0, slices: 0, cellHi: -1}}
	if _, err := Run(context.Background(), o); err == nil {
		t.Fatal("zero-slice resize should fail")
	}
}

func TestResizeInjectionChangesPool(t *testing.T) {
	o := testOptions()
	var err error
	o.Injections, err = ParseInjections("resize@t=100:emc=1:slices=+8,resize@t=200:emc=2:slices=-4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"inject resize emc=1 slices=+8 applied=+8",
		"inject resize emc=2 slices=-4 applied=-4",
	} {
		if !strings.Contains(rep.EventLog, want) {
			t.Fatalf("event log missing %q:\n%s", want, grepLine(rep.EventLog, "resize"))
		}
	}
	// Net +4 GB per cell at run end, and the summary reflects it.
	wantPool := (o.Cluster.PoolGB + 4) * o.Cluster.Cells
	if rep.FinalPoolGB != wantPool {
		t.Fatalf("final pool %d GB, want %d", rep.FinalPoolGB, wantPool)
	}
	// Growth above static provisioning reads as negative savings.
	if rep.DRAMSavedGB >= 0 {
		t.Fatalf("net growth should read as negative savings, got %.2f", rep.DRAMSavedGB)
	}
	if !strings.Contains(rep.EventLog, "elastic summary") {
		t.Fatal("resized run missing the elastic summary line")
	}
}

func TestElasticPoolSmokeAndDeterminism(t *testing.T) {
	base := testOptions()
	base.Model.Disabled = false
	base.Arrivals.RatePerSec = 0.2
	base.Capacity.Elastic = true
	base.Capacity.PlanEverySec = 100

	var reps []*Report
	for _, workers := range []int{1, 3, 8} {
		o := base
		o.Engine.Workers = workers
		rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reps = append(reps, rep)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].EventLog != reps[0].EventLog || reps[i].LogSHA256 != reps[0].LogSHA256 {
			t.Fatalf("elastic event log differs between worker counts 1 and %d", []int{1, 3, 8}[i])
		}
	}
	rep := reps[0]
	if len(rep.PlanHistory) == 0 {
		t.Fatal("elastic run produced no planning decisions")
	}
	if !strings.Contains(rep.EventLog, "plan pool=") {
		t.Fatal("plan decisions missing from the event log")
	}
	// The default pool is grossly oversized for this stream: the
	// controller must have shrunk it and banked savings.
	if rep.FinalPoolGB >= base.Cluster.PoolGB*base.Cluster.Cells {
		t.Fatalf("final pool %d GB did not shrink below static %d", rep.FinalPoolGB, base.Cluster.PoolGB*base.Cluster.Cells)
	}
	if rep.DRAMSavedGB <= 0 {
		t.Fatalf("no DRAM saved: %.2f", rep.DRAMSavedGB)
	}
	// Plan history agrees with the per-cell plans.
	n := 0
	for _, c := range rep.Cells {
		n += len(c.Plans)
	}
	if n != len(rep.PlanHistory) {
		t.Fatalf("plan history has %d entries, cells carry %d", len(rep.PlanHistory), n)
	}
	// The whole-run demand distribution rides along for the offline
	// planner.
	for _, c := range rep.Cells {
		if c.Demand == nil || c.Demand.TotalSec() <= 0 {
			t.Fatalf("cell %d missing its demand distribution", c.Cell)
		}
	}
}

// TestElasticPlannerSavesDRAMAtNoWorseQoS is the capacity-loop
// acceptance test: on a drift-free trace workload the planner-driven
// elastic pool must bank strictly positive DRAM savings versus the
// static baseline while violating QoS and rejecting VMs no more often —
// Pond's §7 right-sizing claim, reproduced end to end in the online
// loop. The elastic event log must also be byte-identical for every
// worker count.
func TestElasticPlannerSavesDRAMAtNoWorseQoS(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity acceptance needs the full horizon; covered in the full tier")
	}
	base := testOptions()
	base.Model.Disabled = false
	base.Arrivals = ArrivalOpts{Process: ArrivalTrace}
	base.Cluster.DurationSec = 2000
	base.Cluster.PoolGB = 128

	static, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	elastic := base
	elastic.Capacity.Elastic = true
	elastic.Capacity.PlanEverySec = 250
	elastic.Capacity.TargetQoS = 0.01

	var reps []*Report
	for _, workers := range []int{1, 4, 8} {
		o := elastic
		o.Engine.Workers = workers
		rep, rerr := Run(context.Background(), o)
		if rerr != nil {
			t.Fatalf("workers=%d: %v", workers, rerr)
		}
		reps = append(reps, rep)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i].EventLog != reps[0].EventLog || reps[i].LogSHA256 != reps[0].LogSHA256 {
			t.Fatalf("elastic event log differs between worker counts 1 and %d", []int{1, 4, 8}[i])
		}
	}
	rep := reps[0]

	if rep.DRAMSavedGB <= 0 {
		t.Fatalf("elastic pool saved no DRAM: %.2f GB", rep.DRAMSavedGB)
	}
	if rep.QoSViolations > static.QoSViolations {
		t.Fatalf("elastic pool worsened QoS: %d violations vs static %d",
			rep.QoSViolations, static.QoSViolations)
	}
	if rep.Rejected > static.Rejected {
		t.Fatalf("elastic pool worsened admission: %d rejections vs static %d",
			rep.Rejected, static.Rejected)
	}
	if rep.FinalPoolGB >= base.Cluster.PoolGB*base.Cluster.Cells {
		t.Fatalf("final pool %d GB not below static %d", rep.FinalPoolGB, base.Cluster.PoolGB*base.Cluster.Cells)
	}
}

func TestIndivisiblePoolBanksNoPhantomSavings(t *testing.T) {
	// 130 GB across 4 EMCs provisions 128 GB (the per-EMC share rounds
	// down); the savings baseline must be what was provisioned, not the
	// requested figure — a static run saves exactly nothing.
	o := testOptions()
	o.Cluster.PoolGB = 130
	rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DRAMSavedGB != 0 {
		t.Fatalf("static run banked %.2f GB of phantom savings", rep.DRAMSavedGB)
	}
	if rep.FinalPoolGB != 128*o.Cluster.Cells {
		t.Fatalf("final pool %d GB, want the provisioned %d", rep.FinalPoolGB, 128*o.Cluster.Cells)
	}
	if strings.Contains(rep.EventLog, "elastic summary") {
		t.Fatal("static run emitted an elastic summary line")
	}
}
