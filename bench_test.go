// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigureN drives the corresponding entry point
// in internal/experiments at quick scale and reports domain-specific
// metrics alongside the usual ns/op, so a `go test -bench=.` run doubles
// as a reproduction report. The cmd/ tools print the full tables.
package pond_test

import (
	"context"
	"testing"

	"pond"
	"pond/internal/cluster"
	"pond/internal/experiments"
	"pond/internal/ml"
	"pond/internal/mlops"
	"pond/internal/pmu"
	"pond/internal/sim"
	"pond/internal/stats"
	"pond/internal/workload"
)

func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2a(experiments.ScaleQuick)
		if len(r.Buckets) > 0 {
			last := r.Buckets[len(r.Buckets)-1]
			b.ReportMetric(last.MeanStranded, "stranded%@top-bucket")
		}
	}
}

func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2b(experiments.ScaleQuick)
		b.ReportMetric(float64(len(r.Racks)), "racks")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(experiments.ScaleQuick)
		for _, row := range r.Rows {
			if row.PoolFrac == 0.50 && row.PoolSockets == 32 {
				b.ReportMetric(100-row.RequiredPct, "savings%@50/32")
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4()
		b.ReportMetric(float64(len(r.PerWorkload)), "workloads")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5()
		b.ReportMetric(100*r.Under5Pct182, "under5%@182")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6()
		b.ReportMetric(float64(r.Budgets[1].PCIeLanes), "lanes@16sock")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7()
		b.ReportMetric(r.Paths[2].TotalNanos(), "ns@16sock")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8()
		for _, row := range r.Rows {
			if row.Sockets == 16 {
				b.ReportMetric(row.ReductionPct, "reduction%@16sock")
			}
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9()
		b.ReportMetric(float64(r.FreeGBAfter), "freeGB")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10()
		b.ReportMetric(r.Topology.TotalMemGB(), "guestGB")
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure15()
		b.ReportMetric(r.Rows[0].TrafficPct, "video-traffic%")
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure16()
		b.ReportMetric(r.Rows[7].Summary.Max, "max%@full-spill")
	}
}

func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure17(4, 2)
		var fp float64
		for _, p := range r.RandomForest {
			if p.InsensitiveFrac == 0.30 {
				fp = 100 * p.FPRate
			}
		}
		b.ReportMetric(fp, "rf-fp%@30li")
	}
}

func BenchmarkFigure18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure18(experiments.ScaleQuick)
		b.ReportMetric(float64(len(r.GBM)+len(r.Fixed)), "points")
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure19(experiments.ScaleQuick, 14)
		b.ReportMetric(float64(len(r.Days)), "retrains")
	}
}

func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure20(experiments.ScaleQuick, 4)
		if n := len(r.At182); n > 0 {
			b.ReportMetric(r.At182[n-1].PoolDRAMPct, "pool%@182")
		}
	}
}

func BenchmarkFigure21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure21(experiments.ScaleQuick)
		for _, row := range r.Rows {
			if row.Policy == "Pond@182%" && row.PoolSockets == 16 {
				b.ReportMetric(100-row.RequiredPct, "pond182-savings%@16")
			}
		}
	}
}

func BenchmarkFinding10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Finding10(experiments.ScaleQuick)
		b.ReportMetric(100*r.ZeroRateFrac, "buffer-satisfied%")
	}
}

// Ablation benches (DESIGN.md §4).

func BenchmarkAblationZNUMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationZNUMA()
		b.ReportMetric(r.AdvantageFactor, "znuma-advantage-x")
	}
}

func BenchmarkAblationAsyncRelease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationAsyncRelease(experiments.ScaleQuick)
		b.ReportMetric(100*r.FallbackFrac[0], "fallback%@2%pool")
	}
}

func BenchmarkAblationForestSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationForestSize()
		b.ReportMetric(100*r.MeanFP[len(r.MeanFP)-1], "fp%@60trees")
	}
}

// Micro-benchmarks of the hot paths underneath the experiments.

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 1
	cfg.Days = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		traces := cluster.Generate(cfg)
		b.ReportMetric(float64(len(traces[0].VMs)), "vms")
	}
}

func BenchmarkSchedulePacking(b *testing.B) {
	cfg := cluster.DefaultGenConfig()
	cfg.Clusters = 1
	cfg.Days = 25
	traces := cluster.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.BuildSchedule(&traces[0])
		if s.RejectionRate() > 0.1 {
			b.Fatal("rejection rate blew up")
		}
	}
}

func BenchmarkPMUSample(b *testing.B) {
	w, _ := workload.ByName("505.mcf_r")
	r := stats.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pmu.Sample(w, r)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	ws := workload.Catalogue()
	r := stats.NewRand(1)
	X := make([][]float64, 0, len(ws))
	y := make([]float64, 0, len(ws))
	for _, w := range ws {
		X = append(X, pmu.Sample(w, r).Features())
		if w.Slowdown(workload.Ratio182, 1) <= 0.05 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	f := ml.FitForest(X, y, ml.DefaultForestConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProb(X[i%len(X)])
	}
}

func BenchmarkGBMPredict(b *testing.B) {
	r := stats.NewRand(1)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		y[i] = X[i][0]
	}
	m := ml.FitGBM(X, y, ml.DefaultGBMConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%n])
	}
}

func BenchmarkSystemStartStopVM(b *testing.B) {
	cfg := pond.DefaultConfig()
	cfg.UsePredictions = false
	sys, err := pond.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := pond.VMSpec{Cores: 4, MemoryGB: 16, Workload: "redis-ycsb-a"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := sys.StartVM(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.StopVM(vm.ID); err != nil {
			b.Fatal(err)
		}
		sys.AdvanceSeconds(1)
	}
}

func BenchmarkCounterAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CounterAudit(5)
		b.ReportMetric(r.Top[0].Drop, "top-counter-drop")
	}
}

func BenchmarkAblationCoLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationCoLocation()
		b.ReportMetric(r.Rows[len(r.Rows)-1].MeanExtraSlowPct, "extra%@16vms")
	}
}

// BenchmarkRunFleet drives the online fleet simulator end to end —
// arrivals, departures, and all three injection kinds over a sparse
// topology — and reports placement throughput alongside ns/op.
func BenchmarkRunFleet(b *testing.B) {
	inj, err := pond.ParseInjections("surge@t=100:dur=100:x=3,emc-fail@t=300,host-drain@t=400:host=1")
	if err != nil {
		b.Fatal(err)
	}
	opts := pond.FleetOpts{
		Cluster:    pond.ClusterOpts{Topology: "sparse", Hosts: 4, EMCs: 4, PoolGB: 64, Cells: 2, DurationSec: 600},
		Arrivals:   pond.ArrivalOpts{Process: "poisson", RatePerSec: 0.2, MeanLifetimeSec: 200},
		Model:      pond.ModelOpts{Disabled: true},
		Injections: inj,
	}
	for i := 0; i < b.N; i++ {
		rep, err := pond.RunFleet(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Placed), "vms-placed")
	}
}

// BenchmarkRetrainLoop times the mlops hot path — shadow scoring, rolling
// holdout bookkeeping, challenger training, and promotion verdicts — over
// a fixed synthetic stream, the same work the CI benchmark gate regresses.
func BenchmarkRetrainLoop(b *testing.B) {
	cfg := mlops.DefaultConfig()
	cfg.MinTrainRows = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := mlops.SyntheticLoop(512, 64, cfg)
		if q.Retrains == 0 {
			b.Fatal("synthetic loop never retrained")
		}
		b.ReportMetric(float64(q.Retrains), "retrains")
		b.ReportMetric(float64(q.Promotions), "promotions")
	}
}
