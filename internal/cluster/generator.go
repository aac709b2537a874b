package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pond/internal/engine"
	"pond/internal/stats"
	"pond/internal/workload"
)

// GenConfig parameterizes trace generation. The defaults produce a
// downscaled fleet whose distributions match the paper's production
// dataset; the cmd/ tools can dial the scale up to the full 100 clusters.
type GenConfig struct {
	Clusters          int
	Days              int
	ServersPerCluster int
	Spec              ServerSpec

	// MeanLifetimeHours is the mean VM lifetime (heavy-tailed around
	// this mean).
	MeanLifetimeHours float64

	// CustomersPerCluster sizes each cluster's tenant population.
	CustomersPerCluster int

	// ShockFraction is the fraction of clusters that experience a
	// sudden workload-mix change mid-trace (Figure 2b).
	ShockFraction float64

	// FirstPartyFraction is the fraction of customers whose workload
	// names are visible to the platform.
	FirstPartyFraction float64

	Seed int64

	// Workers bounds how many clusters generate concurrently; <= 0 means
	// GOMAXPROCS. The generated fleet is byte-identical for every worker
	// count (each cluster has its own seed and ID space).
	Workers int
}

// DefaultGenConfig returns the downscaled default: 24 clusters of 16
// dual-socket servers over 75 days. The per-cluster utilization targets
// span 60-95% scheduled cores so Figure 2a's buckets are all populated.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Clusters:          24,
		Days:              75,
		ServersPerCluster: 16,
		Spec: ServerSpec{
			Sockets:      2,
			CoresPerSock: 24,
			MemGBPerSock: 192,
		},
		MeanLifetimeHours:   20,
		CustomersPerCluster: 32,
		ShockFraction:       0.25,
		FirstPartyFraction:  0.35,
		Seed:                1,
	}
}

// Generate produces the full set of cluster traces for the configuration.
//
// Clusters generate in parallel across cfg.Workers goroutines. Per-cluster
// seeds are precomputed serially from the root stream (the same draws a
// serial Fork loop would make), each cluster generates against its own
// injected RNG with cluster-local IDs, and a deterministic renumbering
// pass restores the fleet-wide sequential IDs — so the result is
// byte-identical to serial generation regardless of worker count.
func Generate(cfg GenConfig) []Trace {
	root := stats.NewRand(cfg.Seed)
	seeds := make([]int64, cfg.Clusters)
	for i := range seeds {
		seeds[i] = root.ForkSeed(int64(i + 1))
	}
	traces, err := engine.Map(context.Background(), seeds, cfg.Workers,
		func(i int, seed int64) (Trace, error) {
			return GenerateCluster(cfg, i, stats.NewRand(seed)), nil
		})
	if err != nil {
		panic("cluster: " + err.Error()) // unreachable: jobs cannot fail
	}

	// Renumber cluster-local IDs into the fleet-wide sequence, exactly as
	// shared counters would have assigned them serially.
	var vmOff VMID
	var custOff CustomerID
	for ti := range traces {
		tr := &traces[ti]
		for i := range tr.Customers {
			tr.Customers[i].ID += custOff
		}
		for i := range tr.VMs {
			tr.VMs[i].ID += vmOff
			tr.VMs[i].Customer += custOff
		}
		vmOff += VMID(len(tr.VMs))
		custOff += CustomerID(len(tr.Customers))
	}
	return traces
}

// regions and OSes for metadata features.
var (
	regions = []string{"us-east", "us-west", "eu-west", "eu-north", "asia-east", "asia-south"}
	oses    = []string{"linux", "windows"}
)

// GenerateCluster generates the trace of a single cluster against an
// injected RNG. IDs are cluster-local (counting from 1); Generate
// renumbers them into the fleet-wide sequence.
func GenerateCluster(cfg GenConfig, idx int, r *stats.Rand) Trace {
	var nextVM VMID
	var nextCustomer CustomerID
	tr := Trace{
		Name:    fmt.Sprintf("cluster-%03d", idx),
		Spec:    cfg.Spec,
		Servers: cfg.ServersPerCluster,
		Days:    cfg.Days,
	}

	// Per-cluster utilization target: clusters span the 60-95% core
	// allocation range of Figure 2a. A mild ramp over the trace plus
	// weekly seasonality gives each cluster a spread of daily points.
	baseUtil := r.Bounded(0.58, 0.88)
	rampPerDay := r.Bounded(0, 0.0025)

	// Shock (Figure 2b): a sudden change in the arriving VM mix around
	// day 36 that strands more memory.
	shock := r.Bernoulli(cfg.ShockFraction)
	if shock {
		// Mid-trace, like the paper's day ~36 of 75.
		tr.ShockDay = int(float64(cfg.Days) * r.Bounded(0.40, 0.56))
	}

	// Customer population with Zipf-like activity weights.
	customers := make([]Customer, cfg.CustomersPerCluster)
	weights := make([]float64, cfg.CustomersPerCluster)
	catalogue := workload.Catalogue()
	for c := range customers {
		nextCustomer++
		customers[c] = makeCustomer(nextCustomer, r, catalogue, cfg.FirstPartyFraction)
		weights[c] = r.Pareto(1, 50, 1.1)
	}
	tr.Customers = customers

	// Per-cluster VM shape mix. Stranding is driven by the gap between
	// the server's DRAM:core ratio (8 GB/core here) and the arriving
	// mix's ratio: a matched cluster strands almost nothing even when
	// full, a core-heavy cluster strands a lot. Each cluster draws a
	// target mix ratio near — but usually below — the server ratio,
	// which reproduces Figure 2a's mean curve with its long upper tail.
	types := VMTypes()
	targetRatio := r.Bounded(6.2, 8.0)
	mix := mixForRatio(types, targetRatio, r)
	shockMix := mix
	if shock {
		// The workload change shifts arrivals toward core-heavy shapes,
		// dropping the mix ratio and stranding more memory (Figure 2b).
		shockMix = mixForRatio(types, targetRatio-r.Bounded(1.5, 2.5), r)
	}

	// Arrival process: Little's law sizing toward the utilization
	// target. Mean cores per VM under the mix is computed to convert
	// target concurrent cores into a concurrent VM count.
	meanLifeSec := cfg.MeanLifetimeHours * 3600
	horizonSec := float64(cfg.Days) * 86400
	totalCores := float64(tr.TotalClusterCores())

	meanCores := func(m []float64) float64 {
		var wsum, csum float64
		for i, t := range types {
			wsum += m[i]
			csum += m[i] * float64(t.Cores)
		}
		return csum / wsum
	}

	// Arrivals come as deployments: a customer spawns a burst of similar
	// VMs at once (scale sets, multi-instance services). Bursts make
	// per-server load episodic — different sockets peak at different
	// times — which is the source of the imbalance that pooling
	// recovers (§2 "Reducing stranding").
	const meanBurst = 3.0
	now := 0.0
	for now < horizonSec {
		day := int(now / 86400)
		m := mix
		if shock && day >= tr.ShockDay {
			m = shockMix
		}
		util := baseUtil + rampPerDay*float64(day) + 0.03*seasonality(now)
		util = stats.Clamp(util, 0.4, maxClusterUtil)
		targetConcurrentVMs := util * totalCores / meanCores(m)
		rate := targetConcurrentVMs / meanLifeSec / meanBurst // bursts per second
		now += r.Exponential(1 / rate)
		if now >= horizonSec {
			break
		}
		cust := customers[r.Choice(weights)]
		vt := pickType(types, m, cust.TypeWeights, r)
		burst := 1 + r.Intn(int(2*meanBurst-1)) // uniform 1..5, mean 3
		// The deployment's VMs share a base lifetime: they tend to be
		// torn down together.
		baseLife := 0.0
		for b := 0; b < burst; b++ {
			at := now + float64(b)*30
			if at >= horizonSec {
				break
			}
			nextVM++
			vm := makeVM(nextVM, cust, vt, at, meanLifeSec, r)
			if b == 0 {
				baseLife = vm.LifetimeSec
			} else {
				vm.LifetimeSec = baseLife * r.Bounded(0.85, 1.15)
				if vm.LifetimeSec < 120 {
					vm.LifetimeSec = 120
				}
			}
			tr.VMs = append(tr.VMs, vm)
		}
	}
	sort.Slice(tr.VMs, func(i, j int) bool { return tr.VMs[i].ArrivalSec < tr.VMs[j].ArrivalSec })
	return tr
}

// maxClusterUtil caps the core-allocation target GenerateCluster's
// arrival loop sizes toward.
const maxClusterUtil = 0.97

// MaxArrivalRate bounds the mean rate, in VMs per second, at which
// GenerateCluster draws a cluster's VMs under cfg: the arrival loop
// sizes the concurrent VM count by Little's law toward at most
// maxClusterUtil of the cluster's cores, and no VM has fewer cores than
// the smallest type.
func (cfg GenConfig) MaxArrivalRate() float64 {
	minCores := math.MaxInt
	for _, t := range VMTypes() {
		minCores = min(minCores, t.Cores)
	}
	cores := float64(cfg.ServersPerCluster * cfg.Spec.TotalCores())
	return maxClusterUtil * cores / float64(minCores) / (cfg.MeanLifetimeHours * 3600)
}

// mixForRatio builds per-type weights whose core-weighted DRAM:core ratio
// matches the target: a bisection over the blend between a core-heavy
// profile (F/D series) and a memory-heavy one (E series), with per-type
// jitter so clusters with equal ratios still differ in composition.
func mixForRatio(types []VMType, target float64, r *stats.Rand) []float64 {
	jitter := make([]float64, len(types))
	for i := range jitter {
		jitter[i] = r.Bounded(0.7, 1.3)
	}
	build := func(x float64) []float64 {
		m := make([]float64, len(types))
		for i, t := range types {
			switch {
			case t.GBPerCore() <= 2:
				m[i] = 0.4 * (1 - x) * jitter[i]
			case t.GBPerCore() <= 4:
				m[i] = (1 - x) * jitter[i]
			default:
				m[i] = 1.5 * x * jitter[i]
			}
			// Small shapes dominate cloud VM counts; weighting down the
			// big shapes keeps per-socket populations in the dozens, as
			// in production, instead of a couple of giant VMs.
			m[i] /= float64(t.Cores)
		}
		return m
	}
	ratio := func(m []float64) float64 {
		var cores, mem float64
		for i, t := range types {
			cores += m[i] * float64(t.Cores)
			mem += m[i] * t.MemoryGB
		}
		return mem / cores
	}
	lo, hi := 0.001, 0.999
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if ratio(build(mid)) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return build((lo + hi) / 2)
}

// seasonality is a weekly triangle wave in [-1, 1], spreading each
// cluster's daily utilization points across a band.
func seasonality(sec float64) float64 {
	const week = 7 * 86400
	x := sec / week
	frac := x - float64(int(x))
	if frac < 0.5 {
		return 4*frac - 1
	}
	return 3 - 4*frac
}

func makeCustomer(id CustomerID, r *stats.Rand, catalogue []workload.Workload, firstPartyFrac float64) Customer {
	// Customer untouched-memory behaviour: the fleet median untouched
	// fraction must be ~50% (§3.2), with wide per-customer variation.
	mean := r.Beta(1.45, 1.45)
	nWorkloads := 1 + r.Intn(3)
	ws := make([]workload.Workload, nWorkloads)
	for i := range ws {
		ws[i] = catalogue[r.Intn(len(catalogue))]
	}
	tw := make([]float64, len(VMTypes()))
	for i := range tw {
		tw[i] = r.Bounded(0.05, 1)
	}
	return Customer{
		ID:            id,
		OS:            oses[r.Choice([]float64{0.72, 0.28})],
		Region:        regions[r.Intn(len(regions))],
		MeanUntouched: mean,
		Spread:        r.Bounded(14, 30),
		Workloads:     ws,
		TypeWeights:   tw,
		FirstParty:    r.Bernoulli(firstPartyFrac),
	}
}

func pickType(types []VMType, clusterMix, custWeights []float64, r *stats.Rand) VMType {
	combined := make([]float64, len(types))
	for i := range combined {
		combined[i] = clusterMix[i] * custWeights[i]
	}
	return types[r.Choice(combined)]
}

func makeVM(id VMID, cust Customer, vt VMType, arrival, meanLifeSec float64, r *stats.Rand) VMRequest {
	// Lifetimes: lognormal with the configured mean; heavy upper tail.
	// For LogNormal(mu, sigma), mean = exp(mu + sigma^2/2).
	const sigma = 1.6
	mu := math.Log(meanLifeSec) - sigma*sigma/2
	life := r.LogNormal(mu, sigma)
	if life < 120 {
		life = 120 // two-minute floor: even failed VMs live briefly
	}

	// Per-VM untouched fraction concentrates around the customer mean.
	a := cust.MeanUntouched * cust.Spread
	b := (1 - cust.MeanUntouched) * cust.Spread
	untouched := r.Beta(clampPos(a), clampPos(b))

	w := cust.Workloads[r.Intn(len(cust.Workloads))]
	name := ""
	if cust.FirstParty {
		name = w.Name
	}
	return VMRequest{
		ID:           id,
		Customer:     cust.ID,
		Type:         vt,
		OS:           cust.OS,
		Region:       cust.Region,
		WorkloadName: name,
		ArrivalSec:   arrival,
		LifetimeSec:  life,
		GroundTruth: VMGroundTruth{
			UntouchedFrac: untouched,
			Workload:      w,
		},
	}
}

func clampPos(x float64) float64 {
	if x < 0.05 {
		return 0.05
	}
	return x
}
