package experiments

import (
	"math"
	"strings"
	"testing"

	"pond/internal/predict"
)

func TestScaleConfigs(t *testing.T) {
	if ScaleQuick.GenConfig().Clusters >= ScaleFull.GenConfig().Clusters {
		t.Fatal("quick scale should be smaller than full")
	}
	if ScalePaper.GenConfig().Clusters != 100 || ScalePaper.GenConfig().Days != 75 {
		t.Fatal("paper scale must match the paper's dataset")
	}
	for _, s := range []Scale{ScaleQuick, ScaleFull, ScalePaper} {
		if s.String() == "" {
			t.Fatal("scale name empty")
		}
	}
}

func TestFigure2aShape(t *testing.T) {
	r := Figure2a(ScaleQuick)
	if len(r.Buckets) < 4 {
		t.Fatalf("only %d buckets", len(r.Buckets))
	}
	lo, hi := r.Buckets[0], r.Buckets[len(r.Buckets)-1]
	if hi.MeanStranded <= lo.MeanStranded {
		t.Errorf("stranding not growing with utilization: %.1f%% -> %.1f%%",
			lo.MeanStranded, hi.MeanStranded)
	}
	// §3.1 headline magnitudes: single-digit means at moderate
	// utilization, p95 tail well above the mean.
	for _, b := range r.Buckets {
		if b.ScheduledPct == 75 && (b.MeanStranded < 2 || b.MeanStranded > 12) {
			t.Errorf("mean stranding at 75%% = %.1f%%, want single digits (§3.1)", b.MeanStranded)
		}
		if b.P95Stranded < b.MeanStranded {
			t.Errorf("bucket %d%%: p95 below mean", b.ScheduledPct)
		}
	}
	if !strings.Contains(r.String(), "Figure 2a") {
		t.Error("missing title")
	}
}

func TestFigure2bIncludesShockedRack(t *testing.T) {
	r := Figure2b(ScaleQuick)
	if len(r.Racks) == 0 || len(r.Racks) > 8 {
		t.Fatalf("racks = %d", len(r.Racks))
	}
	if r.Racks[0].ShockDay == 0 {
		t.Error("shocked racks should sort first")
	}
	// The shocked rack's stranding must rise after the shock.
	rack := r.Racks[0]
	pre, post := 0.0, 0.0
	for d, v := range rack.Stranded {
		if d < rack.ShockDay {
			pre += v
		} else {
			post += v
		}
	}
	pre /= float64(rack.ShockDay)
	post /= float64(len(rack.Stranded) - rack.ShockDay)
	if post <= pre {
		t.Errorf("shock did not raise stranding: %.1f%% -> %.1f%%", pre, post)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3(ScaleQuick)
	if len(r.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(r.Rows))
	}
	req := map[[2]int]float64{}
	for _, row := range r.Rows {
		req[[2]int{int(row.PoolFrac * 100), row.PoolSockets}] = row.RequiredPct
	}
	// Bigger pools and bigger fractions require less DRAM.
	if !(req[[2]int{50, 8}] < req[[2]int{50, 2}] && req[[2]int{50, 32}] < req[[2]int{50, 8}]) {
		t.Errorf("required DRAM not falling with pool size: %v", req)
	}
	if !(req[[2]int{50, 16}] < req[[2]int{30, 16}] && req[[2]int{30, 16}] < req[[2]int{10, 16}]) {
		t.Errorf("required DRAM not falling with pool fraction: %v", req)
	}
	// Diminishing returns: 8->32 improves more than 32->64.
	if (req[[2]int{50, 8}] - req[[2]int{50, 32}]) < (req[[2]int{50, 32}] - req[[2]int{50, 64}]) {
		t.Errorf("no diminishing returns: %v", req)
	}
	// 50% at 32 sockets: ~10% savings (paper: 12%).
	if s := 100 - req[[2]int{50, 32}]; s < 5 || s > 18 {
		t.Errorf("50%%@32 savings = %.1f%%, want ~10%%", s)
	}
}

func TestFigure4Renders(t *testing.T) {
	r := Figure4()
	if len(r.PerWorkload) != 158 {
		t.Fatalf("workloads = %d", len(r.PerWorkload))
	}
	if len(r.Ratio182) != 9 || len(r.Ratio222) != 9 {
		t.Fatalf("class rows = %d/%d", len(r.Ratio182), len(r.Ratio222))
	}
	s := r.String()
	for _, want := range []string{"GAPBS", "Proprietary", "SPLASH2x"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestFigure5HeadlineNumbers(t *testing.T) {
	r := Figure5()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"<1% at 182", r.Under1Pct182, 0.26},
		{"<5% at 182", r.Under5Pct182, 0.43},
		{">25% at 182", r.Over25Pct182, 0.21},
		{"<1% at 222", r.Under1Pct222, 0.23},
		{">25% at 222", r.Over25Pct222, 0.37},
	}
	for _, c := range checks {
		if c.got < c.want-0.05 || c.got > c.want+0.05 {
			t.Errorf("%s = %.3f, want %.2f±0.05", c.name, c.got, c.want)
		}
	}
	if r.Outliers222 != 3 {
		t.Errorf("outliers = %d, want 3", r.Outliers222)
	}
}

func TestFigure6MatchesGenoaAt16(t *testing.T) {
	r := Figure6()
	for _, b := range r.Budgets {
		if b.Sockets == 16 && (b.PCIeLanes != 128 || b.DDR5Channels != 12) {
			t.Errorf("16-socket budget = %+v", b)
		}
	}
	if !strings.Contains(r.String(), "Genoa") {
		t.Error("missing reference point")
	}
}

func TestFigure7LatencyLevels(t *testing.T) {
	r := Figure7()
	if r.Paths[0].TotalNanos() != 85 {
		t.Errorf("local = %v ns", r.Paths[0].TotalNanos())
	}
	if r.Paths[1].TotalNanos() != 155 || r.Paths[2].TotalNanos() != 180 {
		t.Errorf("8/16-socket = %v/%v ns", r.Paths[1].TotalNanos(), r.Paths[2].TotalNanos())
	}
}

func TestFigure8ReductionAroundOneThird(t *testing.T) {
	r := Figure8()
	for _, row := range r.Rows {
		if row.Sockets == 8 || row.Sockets == 16 {
			if row.ReductionPct < 25 || row.ReductionPct > 45 {
				t.Errorf("%d sockets reduction = %.0f%%, want ~33%%", row.Sockets, row.ReductionPct)
			}
		}
	}
}

func TestFigure9Walkthrough(t *testing.T) {
	r := Figure9()
	if len(r.Events) < 5 {
		t.Fatalf("events = %d", len(r.Events))
	}
	if r.Events[0].T != 0 || r.Events[len(r.Events)-1].T != 4 {
		t.Errorf("walkthrough should span t=0..4")
	}
	// One slice stays with VM1, one moved to H2: 6 of 8 GB free.
	if r.FreeGBAfter != 6 {
		t.Errorf("free = %d GB, want 6", r.FreeGBAfter)
	}
}

func TestFigure10TopologyRendering(t *testing.T) {
	r := Figure10()
	s := r.String()
	for _, want := range []string{"available: 2 nodes", "node 1 cpus:\n", "node distances"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if _, hasZ := r.Topology.ZNUMANode(); !hasZ {
		t.Error("no zNUMA node in Figure 10 topology")
	}
}

func TestFigure15TrafficBand(t *testing.T) {
	r := Figure15()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Figure 15: 0.06% - 0.38%.
		if row.TrafficPct < 0.05 || row.TrafficPct > 0.4 {
			t.Errorf("%s traffic = %.3f%%, want within [0.06, 0.38]", row.Workload, row.TrafficPct)
		}
		if row.TouchedPages <= 0 || row.TouchedPages > row.BitmapPages {
			t.Errorf("%s bitmap inconsistent", row.Workload)
		}
	}
}

func TestFigure16SpillProgression(t *testing.T) {
	r := Figure16()
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Correct prediction ≈ all-local (medians within noise).
	if diff := r.Rows[1].Summary.Median - r.Rows[0].Summary.Median; diff > 1 {
		t.Errorf("0%%-spill median %.2f far above all-local %.2f",
			r.Rows[1].Summary.Median, r.Rows[0].Summary.Median)
	}
	// Slowdown grows with spill.
	for i := 2; i < len(r.Rows); i++ {
		if r.Rows[i].Summary.P75 < r.Rows[i-1].Summary.P75-1 {
			t.Errorf("p75 fell from %s to %s", r.Rows[i-1].Label, r.Rows[i].Label)
		}
	}
	// Full spill: worst workloads ~50%+ (paper: up to 50% at 100%).
	if max := r.Rows[7].Summary.Max; max < 40 {
		t.Errorf("max slowdown at full spill = %.1f%%, want >= 40%%", max)
	}
}

func TestFigure17ModelOrdering(t *testing.T) {
	r := Figure17(4, 2)
	var rf, db, mb float64
	for i := range r.RandomForest {
		rf += r.RandomForest[i].FPRate
		db += r.DRAMBound[i].FPRate
		mb += r.MemoryBound[i].FPRate
	}
	if rf > db || db > mb {
		t.Errorf("model ordering violated: RF %.4f, DRAM %.4f, mem %.4f", rf, db, mb)
	}
}

func TestFigure18GBMBeatsFixed(t *testing.T) {
	r := Figure18(ScaleQuick)
	gbm := opNear(r.GBM, 0.20)
	fixed := opNear(r.Fixed, 0.20)
	if gbm >= fixed {
		t.Errorf("GBM OP %.4f not below fixed %.4f at 20%% UM", gbm, fixed)
	}
	if fixed/maxf(gbm, 0.002) < 3 {
		t.Errorf("GBM advantage %.1fx, want >= 3x (paper: 5x)", fixed/maxf(gbm, 0.002))
	}
}

func TestFigure19TracksTarget(t *testing.T) {
	// The rolling retrain is the most expensive figure; -short runs it on
	// the tiny fleet with a sparser cadence (noisier eval windows, hence
	// the looser overprediction bound).
	scale, retrain, opBound := ScaleQuick, 14, 12.0
	if testing.Short() {
		scale, retrain, opBound = ScaleTiny, 28, 20.0
	}
	r := Figure19(scale, retrain)
	if len(r.Days) < 3 {
		t.Fatalf("days = %d", len(r.Days))
	}
	for _, d := range r.Days {
		if d.OPPct > opBound {
			t.Errorf("day %d OP = %.1f%%, far above target", d.Day, d.OPPct)
		}
		if d.AvgUMPct < 5 || d.AvgUMPct > 60 {
			t.Errorf("day %d avg UM = %.1f%% implausible", d.Day, d.AvgUMPct)
		}
	}
}

func TestFigure20FrontierMonotone(t *testing.T) {
	r := Figure20(ScaleQuick, 4)
	if len(r.At182) < 3 || len(r.At222) < 3 {
		t.Fatalf("frontier sizes %d/%d", len(r.At182), len(r.At222))
	}
	for i := 1; i < len(r.At182); i++ {
		if r.At182[i].PoolDRAMPct < r.At182[i-1].PoolDRAMPct-1e-9 {
			t.Error("182 frontier not monotone")
		}
	}
	// At matched misprediction budgets the 182% level admits at least
	// as much pool DRAM as 222% (Finding 8).
	if r.At182[len(r.At182)-1].PoolDRAMPct < r.At222[len(r.At222)-1].PoolDRAMPct-3 {
		t.Errorf("182%% frontier (%.1f%%) below 222%% (%.1f%%)",
			r.At182[len(r.At182)-1].PoolDRAMPct, r.At222[len(r.At222)-1].PoolDRAMPct)
	}
}

func TestFigure21PolicyOrdering(t *testing.T) {
	if testing.Short() {
		// Tiny fleets are too noisy for the policy-ordering assertions;
		// -short only checks the end-to-end pipeline shape.
		r := Figure21(ScaleTiny)
		if len(r.Rows) != 15 {
			t.Fatalf("rows = %d, want 15", len(r.Rows))
		}
		if r.Pond182Stats.VMs == 0 || r.Pond222Stats.VMs == 0 {
			t.Fatal("pipelines planned no VMs")
		}
		return
	}
	r := Figure21(ScaleQuick)
	req := map[string]map[int]float64{}
	for _, row := range r.Rows {
		if req[row.Policy] == nil {
			req[row.Policy] = map[int]float64{}
		}
		req[row.Policy][row.PoolSockets] = row.RequiredPct
	}
	// Finding 9 at 16 sockets: Pond@182 saves most, then Pond@222, then
	// static.
	p182 := req["Pond@182%"][16]
	p222 := req["Pond@222%"][16]
	static := req["Static 15%"][16]
	if !(p182 < p222 && p222 < static+0.5) {
		t.Errorf("policy ordering at 16 sockets: Pond@182 %.1f, Pond@222 %.1f, static %.1f",
			p182, p222, static)
	}
	if s := 100 - p182; s < 3 || s > 15 {
		t.Errorf("Pond@182 savings at 16 sockets = %.1f%%, want mid single digits+", s)
	}
	// Savings grow with pool size for Pond.
	if req["Pond@182%"][32] > req["Pond@182%"][8] {
		t.Error("Pond savings not growing with pool size")
	}
	// The pipeline respects the misprediction budget (TP=98% + 1% QoS).
	if r.Pond182Stats.MispredictFrac() > 0.03 {
		t.Errorf("mispredictions = %.3f, want <= 0.03", r.Pond182Stats.MispredictFrac())
	}
	if r.Pond222Stats.MispredictFrac() > 0.03 {
		t.Errorf("222 mispredictions = %.3f", r.Pond222Stats.MispredictFrac())
	}
}

func TestFinding10BufferSatisfied(t *testing.T) {
	r := Finding10(ScaleQuick)
	if r.Starts < 500 {
		t.Fatalf("starts = %d, too few to judge", r.Starts)
	}
	// Finding 10: offlining below 1 GB/s for 99.99% of starts, 10 GB/s
	// for 99.999%.
	if r.P9999RateGBs > 1 {
		t.Errorf("p99.99 required offline rate = %.2f GB/s, want < 1", r.P9999RateGBs)
	}
	if r.P99999RateGBs > 10 {
		t.Errorf("p99.999 = %.2f GB/s, want < 10", r.P99999RateGBs)
	}
}

func TestAblationZNUMA(t *testing.T) {
	r := AblationZNUMA()
	if r.AdvantageFactor < 10 {
		t.Errorf("zNUMA advantage = %.0fx, want >= 10x", r.AdvantageFactor)
	}
}

func TestAblationAsyncRelease(t *testing.T) {
	r := AblationAsyncRelease(ScaleQuick)
	if len(r.BufferFactor) != 4 {
		t.Fatalf("rows = %d", len(r.BufferFactor))
	}
	// Tighter pools must not reduce fallbacks.
	if r.FallbackFrac[0] < r.FallbackFrac[len(r.FallbackFrac)-1] {
		t.Error("fallbacks should grow as the pool shrinks")
	}
}

func TestAblationForestSize(t *testing.T) {
	r := AblationForestSize()
	if len(r.Trees) != 3 {
		t.Fatalf("points = %d", len(r.Trees))
	}
	// More trees should not be dramatically worse.
	if r.MeanFP[2] > r.MeanFP[0]+0.05 {
		t.Errorf("60 trees FP %.3f much worse than 5 trees %.3f", r.MeanFP[2], r.MeanFP[0])
	}
}

// opNear returns the overprediction rate of the curve point whose
// average untouched memory is closest to target.
func opNear(pts []predict.UMPoint, target float64) float64 {
	best, bestDist := 1.0, math.Inf(1)
	for _, p := range pts {
		if d := math.Abs(p.AvgUM - target); d < bestDist {
			bestDist = d
			best = p.OPRate
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestCounterAuditRanksDRAMBoundFirst(t *testing.T) {
	r := CounterAudit(5)
	if len(r.Top) != 5 {
		t.Fatalf("top = %d", len(r.Top))
	}
	// Finding 5: DRAM-bound carries the most signal.
	if r.Top[0].Counter != "tma_dram_bound" && r.Top[0].Counter != "llc_mpki" {
		t.Errorf("top counter = %s, want a DRAM-latency signal", r.Top[0].Counter)
	}
	if !strings.Contains(r.String(), "tma_dram_bound") {
		t.Error("rendering missing dram-bound")
	}
}

func TestAblationCoLocationKnee(t *testing.T) {
	r := AblationCoLocation()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Extra slowdown must grow with co-location and be negligible for a
	// single VM (the provisioning argument of §2).
	if r.Rows[0].MeanExtraSlowPct > 1 {
		t.Errorf("single VM extra slowdown = %.2f%%, want ~0", r.Rows[0].MeanExtraSlowPct)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MeanExtraSlowPct < r.Rows[i-1].MeanExtraSlowPct-0.5 {
			t.Errorf("extra slowdown fell from %d to %d VMs", r.Rows[i-1].VMs, r.Rows[i].VMs)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.MeanExtraSlowPct < 10 {
		t.Errorf("16 VMs on one port slow only %.1f%%; oversubscription should hurt", last.MeanExtraSlowPct)
	}
	if last.PortUtilization <= r.Rows[0].PortUtilization {
		t.Error("utilization should grow with co-location")
	}
}
