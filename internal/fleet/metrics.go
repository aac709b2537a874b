package fleet

// Per-run sim-time metrics: when Options.Engine.MetricsEverySec > 0, every
// cell samples a compact row of its live state at each multiple of the
// cadence into a preallocated ring. Sampling is determinism-safe by
// construction — it only *reads* sim state (occupancy, pool draw,
// queue depth), never calls account() or touches an RNG, so the event
// log and report hashes are byte-identical with metrics on or off.
// Sample times are computed as k*cadence with an integer k, so the
// series is independent of how the horizon is sliced into Advance
// epochs, and the ring index round-trips through snapshots exactly.

// MetricsRow is one sampled point of a cell's sim-time series.
type MetricsRow struct {
	// Cell is the sampling cell; TSec the simulated sample time.
	Cell int     `json:"cell"`
	TSec float64 `json:"t_sec"`
	// LiveVMs is the count of placed, not-yet-departed VMs.
	LiveVMs int `json:"live_vms"`
	// PoolUsedGB / PoolFreeGB split the cell's active pool capacity.
	PoolUsedGB float64 `json:"pool_used_gb"`
	PoolFreeGB float64 `json:"pool_free_gb"`
	// PendingEvents is the cell event-queue depth.
	PendingEvents int `json:"pending_events"`
	// PredErrEWMA is the exponentially-weighted mean absolute error of
	// the pool-placement prediction against ground-truth untouched
	// memory, updated at each departure (0 without predictions).
	PredErrEWMA float64 `json:"pred_err_ewma"`
}

// maxMetricsRing caps the per-cell ring so a huge horizon with a tiny
// cadence cannot balloon memory; rows past the cap overwrite oldest
// and are counted in CellResult.MetricsDropped. A var, not a const, so
// tests can shrink it to exercise the overflow path.
var maxMetricsRing = 8192

// predErrAlpha is the EWMA smoothing factor of the pred-err series.
const predErrAlpha = 0.05

// metricsRingCap sizes a cell's ring: every expected sample plus slack,
// bounded by maxMetricsRing. Serially drained runs (pondserve, the
// -metrics NDJSON writer) never approach the cap; one-shot batch runs
// keep the most recent maxMetricsRing rows.
func metricsRingCap(durationSec, everySec float64) int {
	n := int(durationSec/everySec) + 2
	if n > maxMetricsRing {
		n = maxMetricsRing
	}
	return n
}

// sampleMetricsUpTo emits every pending sample with time < limit — and
// == limit when inclusive — in time order. Call sites mirror runUntil's
// event-boundary rules (see there), which is what makes the series
// independent of horizon slicing.
func (c *cellSim) sampleMetricsUpTo(limit float64, inclusive bool) {
	if c.metricsEvery <= 0 {
		return
	}
	for {
		s := float64(c.sampleK) * c.metricsEvery
		if s > limit || (!inclusive && s == limit) {
			return
		}
		c.sampleMetrics(s)
		c.sampleK++
	}
}

// sampleMetrics reads the cell's live state into one ring row. Strictly
// read-only over sim state: the host scan mirrors account()'s pool-use
// arithmetic without advancing any integral.
func (c *cellSim) sampleMetrics(at float64) {
	poolUsed := 0.0
	for _, h := range c.hosts {
		poolUsed += h.OnlinePoolGB() - h.FreePoolGB()
	}
	free := float64(c.poolGB) - poolUsed
	if free < 0 {
		free = 0
	}
	row := MetricsRow{
		Cell:          c.cell,
		TSec:          at,
		LiveVMs:       len(c.running),
		PoolUsedGB:    poolUsed,
		PoolFreeGB:    free,
		PendingEvents: len(c.q),
		PredErrEWMA:   c.predErrEWMA,
	}
	if c.ringLen == len(c.ring) {
		// Full: overwrite the oldest row and count the loss.
		c.ring[c.ringStart] = row
		c.ringStart = (c.ringStart + 1) % len(c.ring)
		c.ringDropped++
		return
	}
	c.ring[(c.ringStart+c.ringLen)%len(c.ring)] = row
	c.ringLen++
}

// drainMetricsInto appends the ring's rows in sample order and empties
// it. The Runner calls this serially in cell order at safe points.
func (c *cellSim) drainMetricsInto(out []MetricsRow) []MetricsRow {
	for i := 0; i < c.ringLen; i++ {
		out = append(out, c.ring[(c.ringStart+i)%len(c.ring)])
	}
	c.ringStart, c.ringLen = 0, 0
	return out
}

// observePredErr folds one departure's absolute prediction error into
// the EWMA: the decision's pool fraction is the untouched-memory
// prediction that placed the VM, the ground truth is what the VM
// actually touched. Only runs when sampling is on — the EWMA feeds the
// metrics series and nothing else, so the simulation's own outputs are
// identical either way.
func (c *cellSim) observePredErr(rv *runningVM) {
	if c.metricsEvery <= 0 {
		return
	}
	pred := 0.0
	if mem := rv.vm.Type.MemoryGB; mem > 0 {
		pred = rv.dec.PoolGB / mem
	}
	e := pred - rv.vm.GroundTruth.UntouchedFrac
	if e < 0 {
		e = -e
	}
	if c.predErrN == 0 {
		c.predErrEWMA = e
	} else {
		c.predErrEWMA += predErrAlpha * (e - c.predErrEWMA)
	}
	c.predErrN++
}

// DrainMetrics returns the sim-time metrics rows sampled since the
// previous drain, cells in cell order, each cell's rows in time order.
// Like DrainEvents it must be called at a safe point; drained rows are
// released from the rings. With MetricsEverySec unset it returns nil.
func (r *Runner) DrainMetrics() []MetricsRow {
	if r.o.Engine.MetricsEverySec <= 0 {
		return nil
	}
	var out []MetricsRow
	for _, s := range r.sims {
		out = s.drainMetricsInto(out)
	}
	return out
}
