package fleetpipeline

import (
	"sync"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/mlops"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Row is one (admission-features, outcome) training example, the unit
// the fleet corpus pools across cells.
type Row struct {
	Feats []float64 `json:"feats"`
	Label float64   `json:"label"`
}

// Collector is the fleet pipeline's agent inside one cell: it
// shadow-scores every admission with the distributed contenders, turns
// departures into training rows and holdout observations, and hands both
// to the fleet Manager at each retrain barrier via Drain. It also tracks
// the cell's serving-model quality (the model actually on the request
// path — the challenger on canary cells), so canary and control cells
// report comparable prediction-error metrics.
//
// It is safe for concurrent use; the fleet's discrete-event loop drives
// it sequentially for determinism.
type Collector struct {
	mu sync.Mutex

	cell        int
	overPenalty float64
	windowCap   int

	// Distributed slots (installed at barriers via Install).
	slots    mlops.Slots[predict.Untouched]
	serve    predict.Untouched
	serveVer int

	pending map[cluster.VMID]mlops.Pending

	// Drained at each barrier.
	rows []Row
	obs  []mlops.Obs

	// Whole-run serving quality.
	sumServeLoss float64
	outcomes     int
	serveWindow  []float64 // rolling, capped at windowCap

	// Frozen insensitivity monitoring (the fleet pipeline manages the
	// untouched-memory family; the insensitivity bootstrap keeps serving
	// and is scored here so reports stay comparable with cell scope).
	insens     predict.Insensitivity
	ratio, pdm float64
	sumInsLoss float64
	insN       int
}

// NewCollector builds a cell's collector around the bootstrap release
// (version 0) and the cell's frozen insensitivity model. overPenalty and
// windowCap mirror the fleet Manager's Config so losses agree.
func NewCollector(cell int, bootstrap predict.Untouched, insens predict.Insensitivity,
	ratio, pdm, overPenalty float64, windowCap int) *Collector {
	return &Collector{
		cell:        cell,
		overPenalty: overPenalty,
		windowCap:   windowCap,
		slots:       mlops.NewSlots(bootstrap),
		serve:       bootstrap,
		serveVer:    0,
		pending:     make(map[cluster.VMID]mlops.Pending),
		insens:      insens,
		ratio:       ratio,
		pdm:         pdm,
	}
}

// Install pins a barrier assignment: the shadow slots every outcome will
// score and the model serving this cell's request path.
func (c *Collector) Install(a Assignment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots = a.Slots
	c.serve, c.serveVer = a.Serve, a.ServeVer
}

// ServeVer returns the release version on the cell's request path.
func (c *Collector) ServeVer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serveVer
}

// ObserveDecision shadow-scores one admission with every live contender.
// It satisfies core.ShadowHook, so the fleet loop registers it directly
// on the scheduling pipeline.
func (c *Collector) ObserveDecision(vm cluster.VMRequest, _ *pmu.Vector, umFeatures []float64, _ core.Decision) {
	if umFeatures == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := mlops.ScoreAdmission(&c.slots, vm.ID, append([]float64(nil), umFeatures...))
	if c.serve != nil {
		p.Serve = c.serve.PredictUntouchedFrac(p.Feats)
	}
	c.pending[vm.ID] = p
}

// ObserveOutcome records a departed VM's ground truth, closing its
// pending shadow scores into a holdout observation and a labeled
// training row. The counters argument mirrors the per-cell lifecycle's
// signature, so the fleet loop drives either observer identically.
func (c *Collector) ObserveOutcome(vm cluster.VMRequest, counters pmu.Vector, haveCounters bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if p, ok := c.pending[vm.ID]; ok {
		delete(c.pending, vm.ID)
		label := vm.GroundTruth.UntouchedFrac
		c.rows = append(c.rows, Row{Feats: p.Feats, Label: label})
		c.obs = append(c.obs, p.Close(label, c.overPenalty))

		serveLoss := mlops.UMLoss(p.Serve, label, c.overPenalty)
		c.sumServeLoss += serveLoss
		c.outcomes++
		c.serveWindow = mlops.AppendCapped(c.serveWindow, serveLoss, c.windowCap)
	}

	if haveCounters && c.insens != nil && vm.GroundTruth.Workload.Name != "" {
		label := 0.0
		if vm.GroundTruth.Workload.Slowdown(c.ratio, 1) <= c.pdm {
			label = 1
		}
		c.sumInsLoss += mlops.UMLoss(c.insens.Score(counters), label, c.overPenalty)
		c.insN++
	}
}

// ForgetVM drops a VM's pending shadow scores — rejected admissions and
// VMs lost to failures never produce an outcome or a training row.
func (c *Collector) ForgetVM(id cluster.VMID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
}

// Drain returns the training rows and holdout observations recorded
// since the previous barrier, clearing both. VMs still in flight stay
// pending and surface at a later barrier, after they depart.
func (c *Collector) Drain() ([]Row, []mlops.Obs) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, obs := c.rows, c.obs
	c.rows, c.obs = nil, nil
	return rows, obs
}

// Quality is the cell's end-of-run serving-quality summary.
type Quality struct {
	// ServeVer is the release version on the request path at run end.
	ServeVer int
	// ServeLossMean is the serving model's mean asymmetric loss over
	// every completed VM; ServeLossFinal the same over the final rolling
	// window — the end-of-run prediction error.
	ServeLossMean, ServeLossFinal float64
	// InsensLossMean scores the frozen insensitivity bootstrap.
	InsensLossMean float64
	// Outcomes counts completed VMs that closed a shadow score.
	Outcomes int
}

// Quality summarizes the cell's serving quality so far.
func (c *Collector) Quality() Quality {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := Quality{ServeVer: c.serveVer, Outcomes: c.outcomes}
	if c.outcomes > 0 {
		q.ServeLossMean = c.sumServeLoss / float64(c.outcomes)
	}
	if len(c.serveWindow) > 0 {
		var sum float64
		for _, v := range c.serveWindow {
			sum += v
		}
		q.ServeLossFinal = sum / float64(len(c.serveWindow))
	}
	if c.insN > 0 {
		q.InsensLossMean = c.sumInsLoss / float64(c.insN)
	}
	return q
}
