// Package mlops closes Pond's model-lifecycle loop (§4.4, §5): the
// production system retrains its untouched-memory and latency-
// insensitivity models periodically on fleet telemetry and rolls a new
// model out only after it beats the serving one in an A/B comparison.
//
// A Manager owns one cell's lifecycle. The serving ("champion") models
// live in a predict.Server on the VM request path; every placement
// decision is additionally shadow-scored by the latest retrained
// ("challenger") model and — after a promotion — by the previous champion
// kept as a fallback. When a VM departs, its ground-truth outcome turns
// those shadow scores into per-model losses on a rolling holdout window.
// At each retrain tick the Manager:
//
//  1. demotes the champion back to the fallback if the fallback's rolling
//     loss beats the champion's by the promotion margin (regression
//     after a bad rollout),
//  2. otherwise promotes the challenger via Server.Swap when its rolling
//     loss beats the champion's by the margin,
//  3. trains a fresh challenger from the cell's accumulated
//     (features, outcome) rows once enough have been observed.
//
// The protocol's data and mechanics — contender slots, shadow scores,
// holdout observations, the pair loss (slots.go) — are shared with the
// fleet-scoped release train in mlops/fleetpipeline, which adds canary
// rings and bake verdicts on top.
//
// Everything is deterministic: training seeds derive from the configured
// seed and the model version, buffers are append-ordered, and no map is
// ever iterated, so the lifecycle event stream is byte-identical for any
// worker count when driven from the fleet's discrete-event loop.
package mlops

import (
	"fmt"
	"sync"

	"pond/internal/cluster"
	"pond/internal/core"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Config tunes the lifecycle loop. Zero fields fall back to
// DefaultConfig values.
type Config struct {
	// MinTrainRows is the minimum number of completed VMs before a
	// challenger is trained.
	MinTrainRows int
	// MaxTrainRows caps the training buffer; the most recent rows are
	// kept so models track workload drift instead of ancient history.
	MaxTrainRows int
	// HoldoutWindow is the rolling window (completed VMs) over which
	// champion and challenger losses are compared.
	HoldoutWindow int
	// MinHoldout is the minimum number of decisions both contenders
	// shadow-scored before a promotion or demotion verdict.
	MinHoldout int
	// PromoteMargin is the fractional loss improvement a challenger must
	// show over the champion to be promoted (and a fallback to force a
	// demotion): promote when chall < champ * (1 - PromoteMargin).
	PromoteMargin float64
	// OverPenalty weights overprediction in the untouched-memory loss:
	// predicting memory untouched that the VM then touches causes spills
	// and QoS violations, while underprediction only forgoes pool
	// savings. The matching training quantile is 1/(1+OverPenalty).
	OverPenalty float64
	// LabelRate is the target labeled-insensitive fraction used to pick
	// each insensitivity challenger's serving threshold.
	LabelRate float64
	// Seed roots every challenger's training RNG.
	Seed int64
	// MonitorOnly marks a manager that is never ticked: it shadow-scores
	// decisions and closes their holdout observations as usual, but
	// stores no training rows (nor the pending admission features that
	// would become them), which only a retrain tick reads.
	MonitorOnly bool
}

// DefaultConfig returns the lifecycle defaults used by the fleet loop.
func DefaultConfig() Config {
	return Config{
		MinTrainRows:  48,
		MaxTrainRows:  512,
		HoldoutWindow: 64,
		MinHoldout:    24,
		PromoteMargin: 0.05,
		OverPenalty:   3,
		LabelRate:     0.30,
		Seed:          1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinTrainRows <= 0 {
		c.MinTrainRows = d.MinTrainRows
	}
	if c.MaxTrainRows <= 0 {
		c.MaxTrainRows = d.MaxTrainRows
	}
	if c.HoldoutWindow <= 0 {
		c.HoldoutWindow = d.HoldoutWindow
	}
	if c.MinHoldout <= 0 {
		c.MinHoldout = d.MinHoldout
	}
	if c.PromoteMargin <= 0 {
		c.PromoteMargin = d.PromoteMargin
	}
	if c.OverPenalty <= 0 {
		c.OverPenalty = d.OverPenalty
	}
	if c.LabelRate <= 0 {
		c.LabelRate = d.LabelRate
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// UMLoss is the asymmetric untouched-memory prediction loss:
// overpredicting (promising pool-backed memory the VM then touches)
// costs overPenalty per GB-fraction, underpredicting costs 1.
func UMLoss(pred, label, overPenalty float64) float64 {
	if pred > label {
		return overPenalty * (pred - label)
	}
	return label - pred
}

// Lifecycle event kinds.
const (
	EventRetrain = "retrain"
	EventPromote = "promote"
	EventDemote  = "demote"
)

// Model families under lifecycle management.
const (
	FamilyUM     = "um"
	FamilyInsens = "insens"
)

// Event is one lifecycle action, in event-log order.
type Event struct {
	Cell   int     `json:"cell"`
	AtSec  float64 `json:"at_sec"`
	Family string  `json:"family"`
	Kind   string  `json:"kind"`
	// Ver is the version acted on: the trained challenger for retrain,
	// the newly serving champion for promote/demote.
	Ver int `json:"version"`
	// Rows is the training-set size (retrain only).
	Rows int `json:"rows,omitempty"`
	// ChampLoss and ChallLoss are the rolling holdout losses that decided
	// a promotion or demotion, over N shared decisions.
	ChampLoss float64 `json:"champ_loss,omitempty"`
	ChallLoss float64 `json:"chall_loss,omitempty"`
	N         int     `json:"n,omitempty"`
}

// String renders the event as one deterministic log line (no cell/time
// prefix; the fleet loop adds its own).
func (e Event) String() string {
	switch e.Kind {
	case EventRetrain:
		return fmt.Sprintf("mlops %s retrain ver=%d rows=%d", e.Family, e.Ver, e.Rows)
	default:
		return fmt.Sprintf("mlops %s %s ver=%d loss=%.4f champ-loss=%.4f n=%d",
			e.Family, e.Kind, e.Ver, e.ChallLoss, e.ChampLoss, e.N)
	}
}

// lifecycle is one model family's contenders with their rolling
// holdout. Version 0 is the bootstrap champion (offline model or
// heuristic); each trained challenger gets the next version. Its JSON
// form is the family's lifecycle state; the models travel separately.
type lifecycle[M any] struct {
	Slots[M]
	NextVer int `json:"next_ver"`

	Window []Obs `json:"window,omitempty"` // rolling, capped at HoldoutWindow

	// SumChampLoss and Outcomes cover every outcome, whichever champion
	// served.
	SumChampLoss float64 `json:"sum_champ_loss,omitempty"`
	Outcomes     int     `json:"outcomes,omitempty"`

	meta map[int]trainMeta // training provenance per trained version
}

func newLifecycle[M any](bootstrap M) lifecycle[M] {
	return lifecycle[M]{Slots: NewSlots(bootstrap), NextVer: 1, meta: make(map[int]trainMeta)}
}

// nextVersion hands out the version of a challenger trained now on rows
// examples, recording its provenance.
func (lc *lifecycle[M]) nextVersion(now float64, rows int) int {
	ver := lc.NextVer
	lc.NextVer++
	lc.meta[ver] = trainMeta{Ver: ver, AtSec: now, Rows: rows}
	return ver
}

// observe appends one outcome, scored by the versions the caller
// stamped on it.
func (lc *lifecycle[M]) observe(o Obs, windowCap int) {
	lc.Window = AppendCapped(lc.Window, o, windowCap)
	lc.SumChampLoss += o.ChampLoss
	lc.Outcomes++
}

// provenance returns a version's training time and row count, zero for
// the bootstrap.
func (lc *lifecycle[M]) provenance(ver int) (float64, int) {
	tm := lc.meta[ver]
	return tm.AtSec, tm.Rows
}

// clone returns a copy with a window of its own: the window shifts in
// place as it fills. Models and provenance are shared; they are not
// serialized.
func (lc *lifecycle[M]) clone() lifecycle[M] {
	s := *lc
	s.Window = append([]Obs(nil), lc.Window...)
	return s
}

// champWindowLoss is the mean champion loss over the rolling window,
// whatever versions served — the "current serving quality" metric.
func (lc *lifecycle[M]) champWindowLoss() float64 {
	if len(lc.Window) == 0 {
		return 0
	}
	var sum float64
	for _, o := range lc.Window {
		sum += o.ChampLoss
	}
	return sum / float64(len(lc.Window))
}

func (lc *lifecycle[M]) champMeanLoss() float64 {
	if lc.Outcomes == 0 {
		return 0
	}
	return lc.SumChampLoss / float64(lc.Outcomes)
}

// readyForChallenger reports whether a fresh challenger may be trained:
// the current one, if any, has been shadow-scored beside the champion
// on at least minHoldout outcomes.
func (lc *lifecycle[M]) readyForChallenger(minHoldout int) bool {
	if lc.ChallVer < 0 {
		return true
	}
	_, _, n := lc.PairLoss(Challenger, lc.Window)
	return n >= minHoldout
}

// verdict applies the cell-scope promotion policy: demote a champion its
// fallback beats by the margin, otherwise promote a challenger that
// beats the champion. It returns the event kind ("" for no change) and
// the losses that decided it.
func (lc *lifecycle[M]) verdict(cfg Config) (kind string, champ, other float64, n int) {
	if champ, other, n = lc.PairLoss(Fallback, lc.Window); n >= cfg.MinHoldout && other < champ*(1-cfg.PromoteMargin) {
		lc.Demote()
		return EventDemote, champ, other, n
	}
	if champ, other, n = lc.PairLoss(Challenger, lc.Window); n >= cfg.MinHoldout && other < champ*(1-cfg.PromoteMargin) {
		lc.Promote()
		return EventPromote, champ, other, n
	}
	return "", 0, 0, 0
}

// insModel is an insensitivity contender with its serving threshold. A
// nil model (a manager built without an insensitivity bootstrap) keeps
// its slot but is never charged a loss.
type insModel struct {
	predict.Insensitivity
	thr float64
}

// trainMeta records how a version was produced, for snapshots.
type trainMeta struct {
	Ver   int     `json:"version"`
	AtSec float64 `json:"trained_at_sec"`
	Rows  int     `json:"rows"`
}

// Manager runs one cell's model lifecycle. It is safe for concurrent
// use; the fleet loop drives it sequentially for determinism.
type Manager struct {
	mu  sync.Mutex
	cfg Config

	srv *predict.Server
	// onThreshold installs a newly promoted insensitivity model's serving
	// threshold into the scheduling pipeline.
	onThreshold func(float64)

	ratio, pdm float64

	// Untouched-memory family: scored at admission, so each pending score
	// carries the versions live when the VM was placed. featBuf is the
	// monitor-only scoring copy of the admission features.
	um      lifecycle[predict.Untouched]
	pending map[cluster.VMID]Pending
	umX     [][]float64
	umY     []float64
	featBuf []float64

	// Latency-insensitivity family: scored at departure, with the
	// versions live then.
	ins  lifecycle[insModel]
	insX [][]float64
	insY []float64

	events []Event
	cell   int
}

// NewManager builds a cell's lifecycle around the serving stack: srv is
// the inference server on the request path (hot-swapped on promotion),
// insens/umChamp are the bootstrap champions already installed in it,
// insensThreshold their serving threshold, and ratio/pdm the QoS
// parameters that label insensitivity outcomes. umChamp must not be nil;
// insens may be. onThreshold (may be nil) is invoked with the new
// threshold whenever the insensitivity champion changes.
func NewManager(cfg Config, cell int, srv *predict.Server, insens predict.Insensitivity,
	insensThreshold float64, umChamp predict.Untouched, ratio, pdm float64,
	onThreshold func(float64)) *Manager {
	return &Manager{
		cfg:         cfg.withDefaults(),
		cell:        cell,
		srv:         srv,
		onThreshold: onThreshold,
		ratio:       ratio,
		pdm:         pdm,
		um:          newLifecycle(umChamp),
		pending:     make(map[cluster.VMID]Pending),
		ins:         newLifecycle(insModel{insens, insensThreshold}),
	}
}

// ObserveDecision shadow-scores one admission with every live contender.
// It satisfies core.ShadowHook, so the fleet loop registers it directly
// on the scheduling pipeline.
func (m *Manager) ObserveDecision(vm cluster.VMRequest, counters *pmu.Vector, umFeatures []float64, _ core.Decision) {
	if umFeatures == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.MonitorOnly {
		// Score a reused copy and keep none: the features would only
		// ever become a training row.
		m.featBuf = append(m.featBuf[:0], umFeatures...)
		p := ScoreAdmission(&m.um.Slots, vm.ID, m.featBuf)
		p.Feats = nil
		m.pending[vm.ID] = p
		return
	}
	m.pending[vm.ID] = ScoreAdmission(&m.um.Slots, vm.ID, append([]float64(nil), umFeatures...))
}

// ObserveOutcome records a departed VM's ground truth: the untouched
// fraction closes the pending untouched-memory shadow scores, and the
// workload's all-pool slowdown labels the insensitivity contenders on
// the VM's mean telemetry counters. Unless the manager is monitor-only,
// both outcomes also become training rows.
func (m *Manager) ObserveOutcome(vm cluster.VMRequest, counters pmu.Vector, haveCounters bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if p, ok := m.pending[vm.ID]; ok {
		delete(m.pending, vm.ID)
		label := vm.GroundTruth.UntouchedFrac
		m.um.observe(p.Close(label, m.cfg.OverPenalty), m.cfg.HoldoutWindow)
		if !m.cfg.MonitorOnly {
			m.umX = AppendCapped(m.umX, p.Feats, m.cfg.MaxTrainRows)
			m.umY = AppendCapped(m.umY, label, m.cfg.MaxTrainRows)
		}
	}

	if haveCounters && vm.GroundTruth.Workload.Name != "" {
		label := 0.0
		if vm.GroundTruth.Workload.Slowdown(m.ratio, 1) <= m.pdm {
			label = 1
		}
		// The insensitivity loss reuses the asymmetric shape: scoring a
		// sensitive workload high risks an all-pool QoS violation
		// (weighted OverPenalty), scoring an insensitive one low only
		// forgoes pooling. A missing model scores the label itself, which
		// costs nothing.
		p := m.ins.score(func(c insModel) float64 {
			if c.Insensitivity == nil {
				return label
			}
			return c.Score(counters)
		})
		m.ins.observe(p.Close(label, m.cfg.OverPenalty), m.cfg.HoldoutWindow)
		if !m.cfg.MonitorOnly {
			m.insX = AppendCapped(m.insX, counters.Features(), m.cfg.MaxTrainRows)
			m.insY = AppendCapped(m.insY, label, m.cfg.MaxTrainRows)
		}
	}
}

// ForgetVM drops a VM's pending shadow scores — rejected admissions and
// VMs lost to failures never produce an outcome.
func (m *Manager) ForgetVM(id cluster.VMID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pending, id)
}

// Tick runs one retrain event: per family, the demotion and promotion
// verdict, then challenger training. It returns the lifecycle events it
// produced, in order, for the caller's event log.
func (m *Manager) Tick(nowSec float64) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event

	if kind, champ, other, n := m.um.verdict(m.cfg); kind != "" {
		m.swapLocked()
		out = append(out, m.event(nowSec, FamilyUM, kind, m.um.ChampVer, 0, champ, other, n))
	}
	// Train a fresh challenger once the current one has had its shot.
	if len(m.umX) >= m.cfg.MinTrainRows && m.um.readyForChallenger(m.cfg.MinHoldout) {
		ver := m.um.nextVersion(nowSec, len(m.umX))
		quantile := 1 / (1 + m.cfg.OverPenalty)
		seed := m.cfg.Seed + int64(ver)*7919 + 1
		m.um.Chall, m.um.ChallVer = predict.TrainGBMUntouched(m.umX, m.umY, quantile, seed), ver
		out = append(out, m.event(nowSec, FamilyUM, EventRetrain, ver, len(m.umX), 0, 0, 0))
	}

	if kind, champ, other, n := m.ins.verdict(m.cfg); kind != "" {
		m.swapLocked()
		m.pushThresholdLocked()
		out = append(out, m.event(nowSec, FamilyInsens, kind, m.ins.ChampVer, 0, champ, other, n))
	}
	// The insensitivity label is heavily imbalanced on small windows;
	// require both classes before fitting a classifier.
	if len(m.insX) >= m.cfg.MinTrainRows && bothClasses(m.insY) && m.ins.readyForChallenger(m.cfg.MinHoldout) {
		ver := m.ins.nextVersion(nowSec, len(m.insX))
		seed := m.cfg.Seed + int64(ver)*7919 + 2
		rf := predict.TrainForest(m.insX, m.insY, seed)
		scores := make([]float64, len(m.insX))
		for i, x := range m.insX {
			var v pmu.Vector
			copy(v[:], x)
			scores[i] = rf.Score(v)
		}
		// Serve at the label-rate operating point, but never below the
		// highest score any known-sensitive training row achieved: an
		// all-pool misplacement costs a QoS violation, so the serving
		// threshold errs conservative.
		thr := predict.ThresholdForLabelRate(scores, m.cfg.LabelRate)
		for i, s := range scores {
			if m.insY[i] == 0 && s >= thr {
				thr = s + 1e-9
			}
		}
		m.ins.Chall, m.ins.ChallVer = insModel{rf, thr}, ver
		out = append(out, m.event(nowSec, FamilyInsens, EventRetrain, ver, len(m.insX), 0, 0, 0))
	}

	m.events = append(m.events, out...)
	return out
}

func (m *Manager) event(at float64, family, kind string, ver, rows int, champ, chall float64, n int) Event {
	return Event{Cell: m.cell, AtSec: at, Family: family, Kind: kind,
		Ver: ver, Rows: rows, ChampLoss: champ, ChallLoss: chall, N: n}
}

func (m *Manager) swapLocked() {
	if m.srv != nil {
		m.srv.Swap(m.ins.Champ.Insensitivity, m.um.Champ)
	}
}

func (m *Manager) pushThresholdLocked() {
	if m.onThreshold != nil {
		m.onThreshold(m.ins.Champ.thr)
	}
}

// Quality is the end-of-run model-quality summary of one Manager.
type Quality struct {
	Retrains, Promotions, Demotions int
	// UMChampVer / InsensChampVer are the serving model versions at the
	// end of the run (0 = the bootstrap model was never replaced).
	UMChampVer, InsensChampVer int
	// UMLossMean is the serving untouched-memory model's mean asymmetric
	// loss over every completed VM; UMLossFinal the same over the final
	// rolling window — the end-of-run prediction error.
	UMLossMean, UMLossFinal float64
	// InsensLossMean / InsensLossFinal mirror the above for the
	// insensitivity score against ground-truth labels.
	InsensLossMean, InsensLossFinal float64
	// Outcomes counts completed VMs that closed an untouched-memory
	// shadow score.
	Outcomes int
}

// Quality summarizes the lifecycle so far.
func (m *Manager) Quality() Quality {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := Quality{
		UMChampVer:      m.um.ChampVer,
		InsensChampVer:  m.ins.ChampVer,
		UMLossMean:      m.um.champMeanLoss(),
		UMLossFinal:     m.um.champWindowLoss(),
		InsensLossMean:  m.ins.champMeanLoss(),
		InsensLossFinal: m.ins.champWindowLoss(),
		Outcomes:        m.um.Outcomes,
	}
	for _, e := range m.events {
		switch e.Kind {
		case EventRetrain:
			q.Retrains++
		case EventPromote:
			q.Promotions++
		case EventDemote:
			q.Demotions++
		}
	}
	return q
}

// Events returns the lifecycle history in occurrence order.
func (m *Manager) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

func bothClasses(y []float64) bool {
	pos, neg := false, false
	for _, v := range y {
		if v > 0.5 {
			pos = true
		} else {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}
