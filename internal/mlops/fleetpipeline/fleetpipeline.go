// Package fleetpipeline is the fleet-level counterpart to the per-cell
// lifecycle of internal/mlops: the central ML pipeline of Pond §5, which
// trains on telemetry from the whole fleet and distributes models to
// hosts. One Manager owns the fleet's untouched-memory model release
// train. At every retrain boundary it pools (admission-features,
// outcome) rows from every cell into a single training corpus, trains
// one fleet-wide challenger, and deploys it through a staged rollout:
//
//  1. canary — the challenger is pinned onto a configurable fraction of
//     cells (one deployment ring; rings partition the fleet and rotate
//     per release, spreading bake exposure across cells) while the rest
//     of the fleet keeps the champion;
//  2. bake — every cell shadow-scores both contenders on departing VMs
//     for BakeWindowSec seconds of simulated time;
//  3. verdict — the challenger's pooled rolling-holdout loss over the
//     canary cells either beats the champion's by PromoteMargin and the
//     release fans out fleet-wide, or the canaries roll back to the
//     champion and the challenger is discarded.
//
// After a fleet-wide promotion the previous champion is retained as a
// fallback and shadow-scored everywhere; a fallback that beats the new
// champion on the fleet-wide window forces a demotion, mirroring the
// per-cell lifecycle's regression guard. The contender slots, shadow
// scores, observations and pair losses are internal/mlops's; this
// package adds the rings, the bakes, the pooled corpus and the cells'
// Collectors.
//
// Everything is deterministic: the driver ticks the Manager serially at
// barrier times with per-cell inputs in cell order, training seeds
// derive from the configured seed and the release version, and no map is
// iterated — the rollout event stream is byte-identical for any worker
// count.
package fleetpipeline

import (
	"fmt"

	"pond/internal/mlops"
	"pond/internal/predict"
)

// Config tunes the fleet pipeline. Zero fields fall back to the
// Default values.
type Config struct {
	// Cells is the fleet size in cells; canary sets are fractions of it.
	Cells int
	// CanaryFraction is the fraction of cells a new release reaches
	// first, rounded up to at least one cell.
	CanaryFraction float64
	// BakeWindowSec is how long (simulated seconds) canaries bake before
	// the promote-or-rollback verdict.
	BakeWindowSec float64
	// MinTrainRows is the minimum pooled rows before a challenger is
	// trained; MaxTrainRows caps the fleet corpus (most recent kept).
	MinTrainRows int
	MaxTrainRows int
	// HoldoutWindow caps each cell's rolling shadow-score window;
	// MinHoldout is the minimum pooled canary observations before a
	// verdict (the bake extends until it is met).
	HoldoutWindow int
	MinHoldout    int
	// PromoteMargin is the fractional loss improvement a challenger must
	// show over the champion on the canary holdout to fan out (and a
	// fallback to force a demotion).
	PromoteMargin float64
	// OverPenalty weights overprediction in the asymmetric loss; the
	// training quantile is 1/(1+OverPenalty), as in internal/mlops.
	OverPenalty float64
	// Seed roots every challenger's training RNG.
	Seed int64
}

// DefaultConfig returns the fleet-pipeline defaults for a fleet of the
// given cell count.
func DefaultConfig(cells int) Config {
	d := mlops.DefaultConfig()
	if cells <= 0 {
		cells = 1
	}
	return Config{
		Cells:          cells,
		CanaryFraction: 0.25,
		BakeWindowSec:  0, // driver default: 2x the retrain cadence
		MinTrainRows:   d.MinTrainRows,
		MaxTrainRows:   d.MaxTrainRows * cells,
		HoldoutWindow:  d.HoldoutWindow,
		MinHoldout:     d.MinHoldout,
		PromoteMargin:  d.PromoteMargin,
		OverPenalty:    d.OverPenalty,
		Seed:           d.Seed,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Cells)
	if c.CanaryFraction <= 0 {
		c.CanaryFraction = d.CanaryFraction
	}
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
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Cells <= 0 {
		c.Cells = 1
	}
	return c
}

// Rollout stages.
const (
	// StageSteady: one champion serves every cell; no release in flight.
	StageSteady = "steady"
	// StageCanary: a challenger serves the canary cells and is baking.
	StageCanary = "canary"
)

// Rollout event kinds, in the order a release can experience them.
const (
	EventRetrain     = "retrain"      // challenger trained from the pooled corpus
	EventCanaryStart = "canary-start" // challenger pinned onto the canary cells
	EventHold        = "hold"         // bake extended: too few canary observations
	EventPromote     = "promote"      // challenger fanned out fleet-wide
	EventRollback    = "rollback"     // canaries re-pinned to the champion
	EventDemote      = "demote"       // fallback reinstated after a bad fan-out
)

// Event is one stage transition of the release train.
type Event struct {
	AtSec float64 `json:"at_sec"`
	Kind  string  `json:"kind"`
	// Ver is the release version acted on: the trained challenger for
	// retrain/canary-start/hold/rollback, the newly serving champion for
	// promote/demote.
	Ver int `json:"version"`
	// Rows is the pooled training-corpus size (retrain only).
	Rows int `json:"rows,omitempty"`
	// CanaryLo..CanaryHi is the canary cell range (canary-start only).
	CanaryLo int `json:"canary_lo,omitempty"`
	CanaryHi int `json:"canary_hi,omitempty"`
	// ChampLoss and ChallLoss are the pooled rolling-holdout losses that
	// decided a verdict, over N shared observations.
	ChampLoss float64 `json:"champ_loss,omitempty"`
	ChallLoss float64 `json:"chall_loss,omitempty"`
	N         int     `json:"n,omitempty"`
}

// String renders the event as one deterministic log line (no time
// prefix; the fleet loop adds its own).
func (e Event) String() string {
	switch e.Kind {
	case EventRetrain:
		return fmt.Sprintf("fleetpipeline retrain ver=%d rows=%d", e.Ver, e.Rows)
	case EventCanaryStart:
		return fmt.Sprintf("fleetpipeline canary-start ver=%d cells=%d-%d", e.Ver, e.CanaryLo, e.CanaryHi)
	case EventHold:
		return fmt.Sprintf("fleetpipeline hold ver=%d n=%d", e.Ver, e.N)
	case EventRollback:
		if e.N == 0 {
			// Not a bake verdict: the fallback regression guard demoted
			// the champion this release was baking against, taking the
			// canary down with it.
			return fmt.Sprintf("fleetpipeline rollback ver=%d aborted-by-demotion", e.Ver)
		}
		return fmt.Sprintf("fleetpipeline rollback ver=%d loss=%.4f champ-loss=%.4f n=%d",
			e.Ver, e.ChallLoss, e.ChampLoss, e.N)
	default: // promote | demote
		return fmt.Sprintf("fleetpipeline %s ver=%d loss=%.4f champ-loss=%.4f n=%d",
			e.Kind, e.Ver, e.ChallLoss, e.ChampLoss, e.N)
	}
}

// Assignment is what one cell serves and shadow-scores after a barrier.
type Assignment struct {
	// Slots are the shadow-scoring contenders with their release
	// versions. Every cell shadow-scores all live contenders; only canary
	// membership decides which one serves.
	mlops.Slots[predict.Untouched]

	// Serve is the model on the cell's request path, with its version
	// and role ("champion" on control cells, "canary" while the cell
	// serves a baking challenger).
	Serve    predict.Untouched
	ServeVer int
	Role     string
}

// Manager owns the fleet release train. The fleet driver ticks it
// serially at retrain barriers; it is not safe for concurrent use.
type Manager struct {
	cfg Config

	slots   mlops.Slots[predict.Untouched]
	nextVer int

	stage      string
	canaryLo   int // canary cell range [canaryLo, canaryHi], valid in StageCanary
	canaryHi   int
	bakeEndSec float64

	// Pooled training corpus, FIFO-capped at MaxTrainRows; newRows
	// counts arrivals since the last training, so a release is only ever
	// trained on a corpus that moved.
	x       [][]float64
	y       []float64
	newRows int

	// win[cell] is the cell's rolling shadow-score window.
	win [][]mlops.Obs

	// meta records training provenance per release version.
	meta map[int]MetaState

	events []Event
}

// NewManager builds the fleet pipeline around the bootstrap champion
// (version 0: the offline model or heuristic every cell starts with).
func NewManager(cfg Config, bootstrap predict.Untouched) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		slots:   mlops.NewSlots(bootstrap),
		nextVer: 1,
		stage:   StageSteady,
		win:     make([][]mlops.Obs, cfg.Cells),
		meta:    make(map[int]MetaState),
	}
}

// Config returns the resolved configuration (defaults applied).
func (m *Manager) Config() Config { return m.cfg }

// Stage returns the current rollout stage.
func (m *Manager) Stage() string { return m.stage }

// ChampionVer returns the fleet champion's release version.
func (m *Manager) ChampionVer() int { return m.slots.ChampVer }

// Events returns the rollout history in occurrence order.
func (m *Manager) Events() []Event { return append([]Event(nil), m.events...) }

// CanaryCells returns the canary cell indices of the in-flight release
// (nil in steady state).
func (m *Manager) CanaryCells() []int {
	if m.stage != StageCanary {
		return nil
	}
	out := make([]int, 0, m.canaryHi-m.canaryLo+1)
	for c := m.canaryLo; c <= m.canaryHi; c++ {
		out = append(out, c)
	}
	return out
}

// canaryCount resolves the canary set size: CanaryFraction of the fleet,
// rounded up, at least one cell, at most the whole fleet.
func (m *Manager) canaryCount() int {
	n := int(m.cfg.CanaryFraction*float64(m.cfg.Cells) + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > m.cfg.Cells {
		n = m.cfg.Cells
	}
	return n
}

// ringFor returns the canary cell range of a release: the fleet is
// partitioned into ceil(cells/canaryCount) contiguous deployment rings
// and release ver bakes on ring (ver-1) mod ringCount, so successive
// releases rotate bake exposure across the whole fleet instead of always
// pinning the lowest indices. The last ring may be narrower when the
// fleet does not divide evenly.
func (m *Manager) ringFor(ver int) (lo, hi int) {
	count := m.canaryCount()
	rings := (m.cfg.Cells + count - 1) / count
	ring := (ver - 1) % rings
	if ring < 0 {
		ring = 0
	}
	lo = ring * count
	hi = lo + count - 1
	if hi >= m.cfg.Cells {
		hi = m.cfg.Cells - 1
	}
	return lo, hi
}

// isCanary reports whether cell is in the in-flight release's canary set.
func (m *Manager) isCanary(cell int) bool {
	return m.stage == StageCanary && cell >= m.canaryLo && cell <= m.canaryHi
}

// AssignmentFor returns what the given cell serves and shadow-scores
// right now.
func (m *Manager) AssignmentFor(cell int) Assignment {
	a := Assignment{Slots: m.slots, Serve: m.slots.Champ, ServeVer: m.slots.ChampVer, Role: "champion"}
	if m.isCanary(cell) {
		a.Serve, a.ServeVer, a.Role = m.slots.Chall, m.slots.ChallVer, "canary"
	}
	return a
}

// Tick runs one retrain barrier. rows and obs carry each cell's newly
// drained telemetry since the previous barrier, indexed by cell; both
// must have exactly cfg.Cells entries. It returns the stage transitions
// it produced, in order, for the caller's event log; the caller then
// re-reads AssignmentFor for every cell.
func (m *Manager) Tick(nowSec float64, rows [][]Row, obs [][]mlops.Obs) ([]Event, error) {
	if len(rows) != m.cfg.Cells || len(obs) != m.cfg.Cells {
		return nil, fmt.Errorf("fleetpipeline: tick got %d row sets and %d obs sets for %d cells",
			len(rows), len(obs), m.cfg.Cells)
	}

	// Pool the corpus in cell order: bulk-append, then truncate to the
	// FIFO cap once — per-row front-shifting would be O(rows x cap) on
	// this benchmark-gated path once the corpus saturates.
	for _, cellRows := range rows {
		for _, r := range cellRows {
			m.x = append(m.x, r.Feats)
			m.y = append(m.y, r.Label)
			m.newRows++
		}
	}
	if drop := len(m.x) - m.cfg.MaxTrainRows; drop > 0 {
		m.x = append(m.x[:0], m.x[drop:]...)
		m.y = append(m.y[:0], m.y[drop:]...)
	}
	for cell, cellObs := range obs {
		for _, o := range cellObs {
			m.win[cell] = mlops.AppendCapped(m.win[cell], o, m.cfg.HoldoutWindow)
		}
	}

	var out []Event

	// Verdict on a baked canary release.
	if m.stage == StageCanary && nowSec >= m.bakeEndSec {
		champ, chall, n := m.slots.PairLoss(mlops.Challenger, m.win[m.canaryLo:m.canaryHi+1]...)
		switch {
		case n < m.cfg.MinHoldout:
			// Too few canary departures to judge: extend the bake to the
			// next barrier rather than promoting blind.
			out = append(out, Event{AtSec: nowSec, Kind: EventHold, Ver: m.slots.ChallVer, N: n})
		case chall < champ*(1-m.cfg.PromoteMargin):
			// Fan out fleet-wide; the displaced champion stays as the
			// fallback regression guard.
			m.slots.Promote()
			m.stage = StageSteady
			out = append(out, Event{AtSec: nowSec, Kind: EventPromote, Ver: m.slots.ChampVer,
				ChampLoss: champ, ChallLoss: chall, N: n})
		default:
			// Roll back: every canary cell re-pins the champion.
			ver := m.slots.ChallVer
			m.slots.DropChallenger()
			m.stage = StageSteady
			out = append(out, Event{AtSec: nowSec, Kind: EventRollback, Ver: ver,
				ChampLoss: champ, ChallLoss: chall, N: n})
		}
	}

	// Regression guard: a fallback that beats the champion fleet-wide
	// forces a demotion (the canary verdict was wrong for the fleet). A
	// release already baking on top of the regressed champion is rolled
	// back with it — its verdict would compare against a champion that no
	// longer serves.
	if champ, fb, n := m.slots.PairLoss(mlops.Fallback, m.win...); n >= m.cfg.MinHoldout && fb < champ*(1-m.cfg.PromoteMargin) {
		if m.stage == StageCanary {
			out = append(out, Event{AtSec: nowSec, Kind: EventRollback, Ver: m.slots.ChallVer})
			m.slots.DropChallenger()
			m.stage = StageSteady
		}
		m.slots.Demote()
		out = append(out, Event{AtSec: nowSec, Kind: EventDemote, Ver: m.slots.ChampVer,
			ChampLoss: champ, ChallLoss: fb, N: n})
	}

	// Train the next release from the pooled corpus and open its canary.
	// Fresh rows are required: retraining on an unchanged corpus would
	// ship an identical model through a pointless bake.
	if m.stage == StageSteady && m.slots.ChallVer < 0 && len(m.x) >= m.cfg.MinTrainRows && m.newRows > 0 {
		ver := m.nextVer
		m.nextVer++
		quantile := 1 / (1 + m.cfg.OverPenalty)
		seed := m.cfg.Seed + int64(ver)*7919 + 3
		m.slots.Chall, m.slots.ChallVer = predict.TrainGBMUntouched(m.x, m.y, quantile, seed), ver
		m.newRows = 0
		m.meta[ver] = MetaState{Ver: ver, AtSec: nowSec, Rows: len(m.x)}
		out = append(out, Event{AtSec: nowSec, Kind: EventRetrain, Ver: ver, Rows: len(m.x)})

		m.canaryLo, m.canaryHi = m.ringFor(ver)
		m.bakeEndSec = nowSec + m.cfg.BakeWindowSec
		m.stage = StageCanary
		out = append(out, Event{AtSec: nowSec, Kind: EventCanaryStart, Ver: ver,
			CanaryLo: m.canaryLo, CanaryHi: m.canaryHi})
	}

	m.events = append(m.events, out...)
	return out, nil
}

// Counts tallies the rollout history by kind.
type Counts struct {
	Retrains, Promotions, Rollbacks, Demotions, Holds int
}

// Counts summarizes the rollout history.
func (m *Manager) Counts() Counts {
	var c Counts
	for _, e := range m.events {
		switch e.Kind {
		case EventRetrain:
			c.Retrains++
		case EventPromote:
			c.Promotions++
		case EventRollback:
			c.Rollbacks++
		case EventDemote:
			c.Demotions++
		case EventHold:
			c.Holds++
		}
	}
	return c
}
