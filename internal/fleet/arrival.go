package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pond/internal/cluster"
	"pond/internal/stats"
	"pond/internal/workload"
)

// Arrival model kinds.
const (
	ArrivalPoisson = "poisson"
	ArrivalTrace   = "trace"
)

// ParseArrival parses an arrival spec, filling unspecified parameters
// from the defaults:
//
//	poisson
//	poisson:rate=0.05
//	poisson:rate=0.05:life=600
//	trace
func ParseArrival(s string) (ArrivalOpts, error) {
	a := DefaultOptions().Arrivals
	s = strings.TrimSpace(s)
	if s == "" {
		return a, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case ArrivalPoisson, ArrivalTrace:
		a.Process = parts[0]
	default:
		return a, fmt.Errorf("fleet: unknown arrival model %q (want poisson or trace)", parts[0])
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return a, fmt.Errorf("fleet: arrival parameter %q is not key=value", p)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || !finite(f) {
			return a, fmt.Errorf("fleet: arrival parameter %s=%q must be a positive number", k, v)
		}
		switch k {
		case "rate":
			a.RatePerSec = f
		case "life":
			a.MeanLifetimeSec = f
		default:
			return a, fmt.Errorf("fleet: unknown arrival parameter %q (want rate, life)", k)
		}
	}
	if a.Process == ArrivalTrace && len(parts) > 1 {
		return a, fmt.Errorf("fleet: trace arrivals take no parameters")
	}
	return a, nil
}

// String renders the arrival process as a parseable spec.
func (a ArrivalOpts) String() string {
	if a.Process == ArrivalTrace {
		return ArrivalTrace
	}
	return fmt.Sprintf("%s:rate=%g:life=%g", ArrivalPoisson, a.RatePerSec, a.MeanLifetimeSec)
}

// Spec renders the canonical arrival spec string the -arrival flag
// takes, e.g. "poisson:rate=0.05:life=600", with zero fields filled
// from the defaults.
func (a ArrivalOpts) Spec() string {
	d := DefaultOptions().Arrivals
	if a.Process == "" {
		a.Process = d.Process
	}
	if a.RatePerSec <= 0 {
		a.RatePerSec = d.RatePerSec
	}
	if a.MeanLifetimeSec <= 0 {
		a.MeanLifetimeSec = d.MeanLifetimeSec
	}
	return a.String()
}

// synthCustomers builds a small tenant population for the Poisson stream,
// with the same per-customer behavioural stability the trace generator
// provides (workload set, untouched-memory level, first-party flag) so
// the prediction pipeline's history features have something to learn.
func synthCustomers(n int, r *stats.Rand) []cluster.Customer {
	catalogue := catalogueCache
	out := make([]cluster.Customer, n)
	for i := range out {
		nw := 1 + r.Intn(3)
		ws := make([]workload.Workload, nw)
		for j := range ws {
			ws[j] = catalogue[r.Intn(len(catalogue))]
		}
		out[i] = cluster.Customer{
			ID:            cluster.CustomerID(i + 1),
			OS:            "linux",
			Region:        "local",
			MeanUntouched: r.Beta(1.45, 1.45),
			Spread:        r.Bounded(14, 30),
			Workloads:     ws,
			FirstParty:    r.Bernoulli(0.35),
		}
	}
	return out
}

// MaxArrivalsPerCell bounds a cell's expected arrival count (see
// expectedArrivals); the busiest scenario in this repository expects
// about 26 thousand. Larger streams — rate times horizon, or a trace's
// hosts times horizon — are configuration typos, and the Poisson stream
// is presized from the estimate, so an unbounded one would try to
// allocate whatever number the options imply — rejected by
// normalization, per the parsers' no-runtime-surprise discipline.
const MaxArrivalsPerCell = 1 << 20

// baseArrivalRate bounds the rate a cell's base stream arrives at, and
// so the rate its surge extras scale from: the Poisson rate, or under
// trace the generator's bound for the cell's hosts, since a trace never
// draws at Arrivals.RatePerSec. The cap check sizes every stream from
// it, and generateArrivals never scales surges from more.
func baseArrivalRate(o Options) float64 {
	if o.Arrivals.Process == ArrivalTrace {
		return traceGenConfig(o).MaxArrivalRate()
	}
	return o.Arrivals.RatePerSec
}

// expectedArrivals estimates a cell's stream length (base process plus
// surge extras, ~10% headroom) so the Poisson arrival slice is allocated
// once. Only capacity — never content — depends on the estimate.
func expectedArrivals(o Options) float64 {
	rate := baseArrivalRate(o)
	n := rate * o.Cluster.DurationSec
	for _, inj := range o.Injections {
		if inj.kind == InjectSurge && inj.factor > 1 {
			n += rate * (inj.factor - 1) * inj.durSec
		}
	}
	return n + n/10 + 16
}

// traceGenConfig sizes the trace generator to one cell: its hosts, and
// whole days covering the horizon.
func traceGenConfig(o Options) cluster.GenConfig {
	gen := cluster.DefaultGenConfig()
	gen.ServersPerCluster = o.Cluster.Hosts
	gen.Days = max(int(math.Ceil(o.Cluster.DurationSec/86400)), 1)
	gen.Spec = cluster.ServerSpec{Sockets: 2, CoresPerSock: coresPerSocket, MemGBPerSock: memGBPerSocket}
	return gen
}

// catalogueCache avoids re-copying the 158-workload catalogue on every
// tenant-population build; the fleet generator only reads it.
var catalogueCache = workload.Catalogue()

// vmTypes and vmTypeWeights cache the type catalogue and its arrival
// mix: the weights depend only on the (fixed) catalogue, so rebuilding
// them per drawn VM was pure allocation churn in stream generation.
var vmTypes = cluster.VMTypes()

var vmTypeWeights = func() []float64 {
	weights := make([]float64, len(vmTypes))
	for i, t := range vmTypes {
		// Small shapes dominate cloud VM counts, as in the generator.
		weights[i] = 1 / float64(t.Cores)
	}
	return weights
}()

// drawVM samples one VM request from a customer at the given time.
func drawVM(cust cluster.Customer, at, meanLifeSec float64, r *stats.Rand) cluster.VMRequest {
	vt := vmTypes[r.Choice(vmTypeWeights)]
	w := cust.Workloads[r.Intn(len(cust.Workloads))]
	a := cust.MeanUntouched * cust.Spread
	b := (1 - cust.MeanUntouched) * cust.Spread
	if a < 0.05 {
		a = 0.05
	}
	if b < 0.05 {
		b = 0.05
	}
	life := r.Exponential(meanLifeSec)
	if life < 60 {
		life = 60
	}
	name := ""
	if cust.FirstParty {
		name = w.Name
	}
	return cluster.VMRequest{
		Customer:     cust.ID,
		Type:         vt,
		OS:           cust.OS,
		Region:       cust.Region,
		WorkloadName: name,
		ArrivalSec:   at,
		LifetimeSec:  life,
		GroundTruth: cluster.VMGroundTruth{
			UntouchedFrac: r.Beta(a, b),
			Workload:      w,
		},
	}
}

// driftPopulation applies one drift injection to a tenant population:
// every customer's mean untouched fraction moves mag of the way toward
// its complement, and with probability mag the customer's workload set
// is replaced with a fresh draw from the catalogue. Customer IDs (and
// thus their telemetry history) persist across the shift, which is
// exactly what makes pre-drift models stale rather than merely
// uninformed.
func driftPopulation(pop []cluster.Customer, mag float64, r *stats.Rand) []cluster.Customer {
	catalogue := catalogueCache
	out := make([]cluster.Customer, len(pop))
	for i, c := range pop {
		c.MeanUntouched = stats.Clamp(c.MeanUntouched*(1-mag)+(1-c.MeanUntouched)*mag, 0.02, 0.98)
		if r.Bernoulli(mag) {
			nw := 1 + r.Intn(3)
			ws := make([]workload.Workload, nw)
			for j := range ws {
				ws[j] = catalogue[r.Intn(len(catalogue))]
			}
			c.Workloads = ws
		}
		out[i] = c
	}
	return out
}

// Labels of the drift-transform RNG streams. Their seeds are keyed to
// the arrival seed with stats.HashWords rather than drawn from the
// parent stream: a parent draw's position would depend on whether any
// drift exists, so adding a first drift would shift every later
// sub-stream's seed — including surge streams whose pre-drift extras
// were already simulated. Keyed seeds make each sub-stream independent
// of which other injections are present, the property the Runner's
// live-injection regeneration relies on.
const (
	driftForkLabel      = 6
	driftTraceForkLabel = 7
)

// driftEpochs precomputes the tenant population for each drift epoch:
// epochs[0] is the initial population, epochs[k] the population after
// the k-th drift injection hitting this cell (times returned alongside,
// ascending). Regional drifts (cells=a-b) leave out-of-range cells'
// populations untouched — their streams never see the shift.
func driftEpochs(initial []cluster.Customer, injections []Injection, cell int, rd *stats.Rand) (times []float64, epochs [][]cluster.Customer) {
	epochs = [][]cluster.Customer{initial}
	var drifts []Injection
	for _, in := range injections {
		if in.kind == InjectDrift && in.AppliesTo(cell) {
			drifts = append(drifts, in)
		}
	}
	if len(drifts) == 0 {
		return nil, epochs
	}
	sort.SliceStable(drifts, func(i, j int) bool { return drifts[i].atSec < drifts[j].atSec })
	for _, d := range drifts {
		times = append(times, d.atSec)
		epochs = append(epochs, driftPopulation(epochs[len(epochs)-1], d.mag, rd))
	}
	return times, epochs
}

// populationAt picks the epoch population live at time t.
func populationAt(t float64, times []float64, epochs [][]cluster.Customer) []cluster.Customer {
	i := 0
	for i < len(times) && t >= times[i] {
		i++
	}
	return epochs[i]
}

// generateArrivals produces the cell's full arrival stream: the base
// process (Poisson or trace-derived) plus any surge-injection extras,
// time-sorted and renumbered chronologically, with drift injections
// shifting the tenant population mid-stream. The stream is a pure
// function of (options, cell, seed): all randomness comes from forks of
// the seed in a fixed order, with drift-transform forks keyed to the
// seed directly (see driftForkLabel) so the presence of one injection
// never perturbs another injection's sub-stream.
func generateArrivals(o Options, cell int, seed int64) []cluster.VMRequest {
	r := stats.NewRand(seed)
	var vms []cluster.VMRequest
	var customers []cluster.Customer
	var driftTimes []float64
	var epochs [][]cluster.Customer
	baseRate := baseArrivalRate(o)
	isTrace := o.Arrivals.Process == ArrivalTrace

	switch o.Arrivals.Process {
	case ArrivalTrace:
		tr := cluster.GenerateCluster(traceGenConfig(o), cell, r.Fork(1))
		customers = tr.Customers
		for _, vm := range tr.VMs {
			if vm.ArrivalSec < o.Cluster.DurationSec {
				vms = append(vms, vm)
			}
		}
		// Surges scale from the trace's own rate, capped at the bound
		// the cap check sized them from; an empty trace draws none.
		baseRate = min(baseRate, float64(len(vms))/o.Cluster.DurationSec)
		epochs = [][]cluster.Customer{customers}
	default: // poisson
		rArr := r.Fork(1)
		customers = synthCustomers(32, rArr)
		driftTimes, epochs = driftEpochs(customers, o.Injections, cell,
			stats.NewRand(stats.HashWords(uint64(seed), driftForkLabel)))
		// Presize for the expected stream (surge extras included below
		// share the slice); capacity never affects the drawn contents.
		vms = make([]cluster.VMRequest, 0, int(expectedArrivals(o)))
		for t := rArr.Exponential(1 / o.Arrivals.RatePerSec); t < o.Cluster.DurationSec; t += rArr.Exponential(1 / o.Arrivals.RatePerSec) {
			pop := populationAt(t, driftTimes, epochs)
			cust := pop[rArr.Intn(len(pop))]
			vms = append(vms, drawVM(cust, t, o.Arrivals.MeanLifetimeSec, rArr))
		}
	}

	// Surge injections add an extra Poisson stream at (factor-1) x the
	// base rate over their window, drawn from the tenant population live
	// at each extra arrival's time (pre-drift before a drift point,
	// post-drift after it).
	meanLife := o.Arrivals.MeanLifetimeSec
	for i, inj := range o.Injections {
		if inj.kind != InjectSurge || len(customers) == 0 {
			continue
		}
		extraRate := baseRate * (inj.factor - 1)
		if extraRate <= 0 {
			continue
		}
		rs := r.Fork(int64(100 + i))
		end := inj.atSec + inj.durSec
		if end > o.Cluster.DurationSec {
			end = o.Cluster.DurationSec
		}
		for t := inj.atSec + rs.Exponential(1/extraRate); t < end; t += rs.Exponential(1 / extraRate) {
			pop := populationAt(t, driftTimes, epochs)
			cust := pop[rs.Intn(len(pop))]
			vms = append(vms, drawVM(cust, t, meanLife, rs))
		}
	}

	if isTrace {
		// Trace streams are pre-generated, so drift transforms the
		// ground truth of VMs arriving after each drift point instead of
		// the population that draws them. Applied after surge extras so
		// they drift too.
		vms = driftTraceVMs(vms, o.Injections, cell,
			stats.NewRand(stats.HashWords(uint64(seed), driftTraceForkLabel)))
	}

	// Concrete-type stable sort: a stable sort's output is uniquely
	// determined by the comparator and input order, so replacing
	// sort.SliceStable (reflect-based swaps of a large struct) with
	// sort.Stable over byArrival changes no stream or golden byte.
	sort.Stable(byArrival(vms))
	for i := range vms {
		vms[i].ID = cluster.VMID(i + 1)
	}
	return vms
}

// byArrival stable-sorts VM requests by arrival time.
type byArrival []cluster.VMRequest

func (s byArrival) Len() int           { return len(s) }
func (s byArrival) Less(a, b int) bool { return s[a].ArrivalSec < s[b].ArrivalSec }
func (s byArrival) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }

// driftTraceVMs applies drift injections to a trace-derived stream: each
// drift flips the untouched-memory behaviour of VMs arriving after it
// (mag of the way toward the complement) and reassigns a mag fraction of
// their workloads. Regional drifts skip out-of-range cells.
func driftTraceVMs(vms []cluster.VMRequest, injections []Injection, cell int, rd *stats.Rand) []cluster.VMRequest {
	var drifts []Injection
	for _, in := range injections {
		if in.kind == InjectDrift && in.AppliesTo(cell) {
			drifts = append(drifts, in)
		}
	}
	if len(drifts) == 0 {
		return vms
	}
	sort.SliceStable(drifts, func(i, j int) bool { return drifts[i].atSec < drifts[j].atSec })
	catalogue := catalogueCache
	for _, d := range drifts {
		for i := range vms {
			if vms[i].ArrivalSec < d.atSec {
				continue
			}
			uf := vms[i].GroundTruth.UntouchedFrac
			vms[i].GroundTruth.UntouchedFrac = stats.Clamp(uf*(1-d.mag)+(1-uf)*d.mag, 0, 1)
			if rd.Bernoulli(d.mag) {
				vms[i].GroundTruth.Workload = catalogue[rd.Intn(len(catalogue))]
			}
		}
	}
	return vms
}
