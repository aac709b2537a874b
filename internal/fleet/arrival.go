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

// ArrivalModel describes the VM arrival process of one cell.
type ArrivalModel struct {
	// Kind is "poisson" (memoryless arrivals with exponential lifetimes)
	// or "trace" (interarrivals, shapes, and lifetimes derived from the
	// internal/cluster generator — bursty deployments, customer
	// correlations, workload shocks).
	Kind string

	// RatePerSec is the Poisson arrival rate (VMs per second).
	RatePerSec float64

	// MeanLifetimeSec is the mean exponential VM lifetime under poisson.
	MeanLifetimeSec float64
}

// DefaultArrival returns the default Poisson process: one VM every 20
// simulated seconds, mean lifetime 600 s.
func DefaultArrival() ArrivalModel {
	return ArrivalModel{Kind: ArrivalPoisson, RatePerSec: 0.05, MeanLifetimeSec: 600}
}

// ParseArrival parses an arrival spec:
//
//	poisson
//	poisson:rate=0.05
//	poisson:rate=0.05:life=600
//	trace
func ParseArrival(s string) (ArrivalModel, error) {
	m := DefaultArrival()
	s = strings.TrimSpace(s)
	if s == "" {
		return m, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case ArrivalPoisson:
		m.Kind = ArrivalPoisson
	case ArrivalTrace:
		m.Kind = ArrivalTrace
	default:
		return m, fmt.Errorf("fleet: unknown arrival model %q (want poisson or trace)", parts[0])
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return m, fmt.Errorf("fleet: arrival parameter %q is not key=value", p)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return m, fmt.Errorf("fleet: arrival parameter %s=%q must be a positive number", k, v)
		}
		switch k {
		case "rate":
			m.RatePerSec = f
		case "life":
			m.MeanLifetimeSec = f
		default:
			return m, fmt.Errorf("fleet: unknown arrival parameter %q (want rate, life)", k)
		}
	}
	if m.Kind == ArrivalTrace && len(parts) > 1 {
		return m, fmt.Errorf("fleet: trace arrivals take no parameters")
	}
	return m, nil
}

// String renders the model as a parseable spec.
func (m ArrivalModel) String() string {
	if m.Kind == ArrivalTrace {
		return ArrivalTrace
	}
	return fmt.Sprintf("%s:rate=%g:life=%g", ArrivalPoisson, m.RatePerSec, m.MeanLifetimeSec)
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
// about 26 thousand. Larger rate-times-horizon products are
// configuration typos, and the arrival stream is presized from the
// estimate, so an unbounded one would try to allocate whatever number
// the options imply — rejected by normalization, per the parsers'
// no-runtime-surprise discipline.
const MaxArrivalsPerCell = 1 << 20

// expectedArrivals estimates a cell's Poisson stream length (base
// process plus surge extras, ~10% headroom) so the arrival slice is
// allocated once. Only capacity — never content — depends on the
// estimate.
func expectedArrivals(o Options) float64 {
	n := o.Arrival.RatePerSec * o.DurationSec
	for _, inj := range o.Injections {
		if inj.Kind == InjectSurge && inj.Factor > 1 {
			n += o.Arrival.RatePerSec * (inj.Factor - 1) * inj.DurSec
		}
	}
	return n + n/10 + 16
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
		if in.Kind == InjectDrift && in.AppliesTo(cell) {
			drifts = append(drifts, in)
		}
	}
	if len(drifts) == 0 {
		return nil, epochs
	}
	sort.SliceStable(drifts, func(i, j int) bool { return drifts[i].AtSec < drifts[j].AtSec })
	for _, d := range drifts {
		times = append(times, d.AtSec)
		epochs = append(epochs, driftPopulation(epochs[len(epochs)-1], d.Mag, rd))
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
	baseRate := o.Arrival.RatePerSec
	isTrace := o.Arrival.Kind == ArrivalTrace

	switch o.Arrival.Kind {
	case ArrivalTrace:
		gen := cluster.DefaultGenConfig()
		gen.ServersPerCluster = o.Hosts
		gen.Days = int(math.Ceil(o.DurationSec / 86400))
		if gen.Days < 1 {
			gen.Days = 1
		}
		gen.Spec = cluster.ServerSpec{Sockets: 2, CoresPerSock: o.CoresPerSocket, MemGBPerSock: o.MemGBPerSocket}
		tr := cluster.GenerateCluster(gen, cell, r.Fork(1))
		customers = tr.Customers
		for _, vm := range tr.VMs {
			if vm.ArrivalSec < o.DurationSec {
				vms = append(vms, vm)
			}
		}
		if n := len(vms); n > 0 {
			baseRate = float64(n) / o.DurationSec
		}
		epochs = [][]cluster.Customer{customers}
	default: // poisson
		rArr := r.Fork(1)
		customers = synthCustomers(32, rArr)
		driftTimes, epochs = driftEpochs(customers, o.Injections, cell,
			stats.NewRand(stats.HashWords(uint64(seed), driftForkLabel)))
		// Presize for the expected stream (surge extras included below
		// share the slice); capacity never affects the drawn contents.
		vms = make([]cluster.VMRequest, 0, int(expectedArrivals(o)))
		for t := rArr.Exponential(1 / o.Arrival.RatePerSec); t < o.DurationSec; t += rArr.Exponential(1 / o.Arrival.RatePerSec) {
			pop := populationAt(t, driftTimes, epochs)
			cust := pop[rArr.Intn(len(pop))]
			vms = append(vms, drawVM(cust, t, o.Arrival.MeanLifetimeSec, rArr))
		}
	}

	// Surge injections add an extra Poisson stream at (factor-1) x the
	// base rate over their window, drawn from the tenant population live
	// at each extra arrival's time (pre-drift before a drift point,
	// post-drift after it).
	meanLife := o.Arrival.MeanLifetimeSec
	if meanLife <= 0 {
		meanLife = DefaultArrival().MeanLifetimeSec
	}
	for i, inj := range o.Injections {
		if inj.Kind != InjectSurge || len(customers) == 0 {
			continue
		}
		extraRate := baseRate * (inj.Factor - 1)
		if extraRate <= 0 {
			continue
		}
		rs := r.Fork(int64(100 + i))
		end := inj.AtSec + inj.DurSec
		if end > o.DurationSec {
			end = o.DurationSec
		}
		for t := inj.AtSec + rs.Exponential(1/extraRate); t < end; t += rs.Exponential(1 / extraRate) {
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
		if in.Kind == InjectDrift && in.AppliesTo(cell) {
			drifts = append(drifts, in)
		}
	}
	if len(drifts) == 0 {
		return vms
	}
	sort.SliceStable(drifts, func(i, j int) bool { return drifts[i].AtSec < drifts[j].AtSec })
	catalogue := catalogueCache
	for _, d := range drifts {
		for i := range vms {
			if vms[i].ArrivalSec < d.AtSec {
				continue
			}
			uf := vms[i].GroundTruth.UntouchedFrac
			vms[i].GroundTruth.UntouchedFrac = stats.Clamp(uf*(1-d.Mag)+(1-uf)*d.Mag, 0, 1)
			if rd.Bernoulli(d.Mag) {
				vms[i].GroundTruth.Workload = catalogue[rd.Intn(len(catalogue))]
			}
		}
	}
	return vms
}
