package fleetpipeline

import (
	"fmt"
	"slices"
	"sort"

	"pond/internal/mlops"
	"pond/internal/predict"
)

// MetaState is one release version's training provenance.
type MetaState struct {
	Ver   int     `json:"ver"`
	AtSec float64 `json:"at_sec"`
	Rows  int     `json:"rows"`
}

// ManagerState is the serializable state of the fleet release train:
// the live release slots (wire-form models plus versions), rollout
// stage, pooled corpus, per-cell holdout windows, provenance, and the
// event history. Config is wiring, rebuilt by the restoring caller.
type ManagerState struct {
	Champ *mlops.UMModelState `json:"champ,omitempty"`
	Chall *mlops.UMModelState `json:"chall,omitempty"`
	Fb    *mlops.UMModelState `json:"fb,omitempty"`

	ChampVer int `json:"champ_ver"`
	ChallVer int `json:"chall_ver"`
	FbVer    int `json:"fb_ver"`
	NextVer  int `json:"next_ver"`

	Stage      string  `json:"stage"`
	CanaryLo   int     `json:"canary_lo,omitempty"`
	CanaryHi   int     `json:"canary_hi,omitempty"`
	BakeEndSec float64 `json:"bake_end_sec,omitempty"`

	X       [][]float64 `json:"x,omitempty"`
	Y       []float64   `json:"y,omitempty"`
	NewRows int         `json:"new_rows,omitempty"`

	Win [][]mlops.Obs `json:"win,omitempty"`

	Meta   []MetaState `json:"meta,omitempty"`
	Events []Event     `json:"events,omitempty"`
}

// State captures the release train's full state for serialization.
func (m *Manager) State() (ManagerState, error) {
	s := ManagerState{
		ChampVer: m.slots.ChampVer, ChallVer: m.slots.ChallVer, FbVer: m.slots.FbVer, NextVer: m.nextVer,
		Stage: m.stage, CanaryLo: m.canaryLo, CanaryHi: m.canaryHi, BakeEndSec: m.bakeEndSec,
		X: slices.Clone(m.x), Y: slices.Clone(m.y), NewRows: m.newRows,
		Win:    make([][]mlops.Obs, len(m.win)),
		Events: slices.Clone(m.events),
	}
	var err error
	if s.Champ, s.Chall, s.Fb, err = mlops.UMSlotStates(&m.slots); err != nil {
		return ManagerState{}, err
	}
	// Windows shift in place as they fill; the state keeps its own copy.
	for c, w := range m.win {
		s.Win[c] = append([]mlops.Obs(nil), w...)
	}
	for _, ms := range m.meta {
		s.Meta = append(s.Meta, ms)
	}
	sort.Slice(s.Meta, func(i, j int) bool { return s.Meta[i].Ver < s.Meta[j].Ver })
	return s, nil
}

// SetState restores a state captured by State onto a freshly built
// manager with the same config.
func (m *Manager) SetState(s ManagerState) error {
	if len(s.Win) != 0 && len(s.Win) != len(m.win) {
		return fmt.Errorf("fleetpipeline: state has %d cell windows, manager has %d", len(s.Win), len(m.win))
	}
	switch {
	case s.Stage == StageCanary && (s.CanaryLo < 0 || s.CanaryLo > s.CanaryHi || s.CanaryHi >= m.cfg.Cells):
		return fmt.Errorf("fleetpipeline: canary cells %d-%d outside the %d-cell fleet", s.CanaryLo, s.CanaryHi, m.cfg.Cells)
	case s.Stage != StageCanary && s.Stage != StageSteady:
		return fmt.Errorf("fleetpipeline: unknown rollout stage %q", s.Stage)
	}
	slots := mlops.Slots[predict.Untouched]{ChampVer: s.ChampVer, ChallVer: s.ChallVer, FbVer: s.FbVer}
	if err := mlops.SetUMSlots(&slots, s.Champ, s.Chall, s.Fb); err != nil {
		return err
	}
	m.slots, m.nextVer = slots, s.NextVer
	m.stage, m.canaryLo, m.canaryHi, m.bakeEndSec = s.Stage, s.CanaryLo, s.CanaryHi, s.BakeEndSec
	m.x, m.y, m.newRows = mlops.CloneRows(s.X), slices.Clone(s.Y), s.NewRows
	for c := range m.win {
		m.win[c] = nil
	}
	for c, w := range s.Win {
		m.win[c] = append([]mlops.Obs(nil), w...)
	}
	m.meta = make(map[int]MetaState, len(s.Meta))
	for _, ms := range s.Meta {
		m.meta[ms.Ver] = ms
	}
	m.events = slices.Clone(s.Events)
	return nil
}

// AssignmentForServeVer rebuilds a cell's barrier assignment from the
// manager's current slots, picking the serving model by version.
// Restores use it to re-pin collectors without replaying the barrier
// that installed them.
func (m *Manager) AssignmentForServeVer(serveVer int) (Assignment, error) {
	a := Assignment{Slots: m.slots, ServeVer: serveVer, Role: "champion"}
	switch serveVer {
	case m.slots.ChampVer:
		a.Serve = m.slots.Champ
	case m.slots.ChallVer:
		a.Serve = m.slots.Chall
		a.Role = "canary"
	case m.slots.FbVer:
		a.Serve = m.slots.Fb
	default:
		return Assignment{}, fmt.Errorf("fleetpipeline: serving version %d matches no live slot (champ=%d chall=%d fb=%d)",
			serveVer, m.slots.ChampVer, m.slots.ChallVer, m.slots.FbVer)
	}
	return a, nil
}

// CollectorState is the serializable state of one cell's collector. The
// model slots themselves are re-pinned by the restoring caller via
// Install (see AssignmentFor); this carries the versions for that
// lookup plus everything the collector accumulated.
type CollectorState struct {
	ChampVer int `json:"champ_ver"`
	ChallVer int `json:"chall_ver"`
	FbVer    int `json:"fb_ver"`
	ServeVer int `json:"serve_ver"`

	Pending []mlops.Pending `json:"pending,omitempty"`
	Rows    []Row           `json:"rows,omitempty"`
	Obs     []mlops.Obs     `json:"obs,omitempty"`

	SumServeLoss float64   `json:"sum_serve_loss,omitempty"`
	Outcomes     int       `json:"outcomes,omitempty"`
	ServeWindow  []float64 `json:"serve_window,omitempty"`

	SumInsLoss float64 `json:"sum_ins_loss,omitempty"`
	InsN       int     `json:"ins_n,omitempty"`
}

// State captures the collector's accumulated state for serialization.
func (c *Collector) State() CollectorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorState{
		ChampVer: c.slots.ChampVer, ChallVer: c.slots.ChallVer, FbVer: c.slots.FbVer, ServeVer: c.serveVer,
		Pending:      mlops.PendingList(c.pending),
		Rows:         slices.Clone(c.rows),
		Obs:          slices.Clone(c.obs),
		SumServeLoss: c.sumServeLoss, Outcomes: c.outcomes,
		ServeWindow: slices.Clone(c.serveWindow),
		SumInsLoss:  c.sumInsLoss, InsN: c.insN,
	}
}

// SetState restores a state captured by State onto a freshly built
// collector. Call Install first to re-pin the model slots; SetState
// checks the versions line up.
func (c *Collector) SetState(s CollectorState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots.ChampVer != s.ChampVer || c.slots.ChallVer != s.ChallVer || c.slots.FbVer != s.FbVer || c.serveVer != s.ServeVer {
		return fmt.Errorf("fleetpipeline: cell %d collector slots (%d,%d,%d serve %d) do not match state (%d,%d,%d serve %d)",
			c.cell, c.slots.ChampVer, c.slots.ChallVer, c.slots.FbVer, c.serveVer, s.ChampVer, s.ChallVer, s.FbVer, s.ServeVer)
	}
	c.pending = mlops.PendingMap(s.Pending)
	c.rows = nil
	for _, r := range s.Rows {
		c.rows = append(c.rows, Row{Feats: slices.Clone(r.Feats), Label: r.Label})
	}
	c.obs = slices.Clone(s.Obs)
	c.sumServeLoss = s.SumServeLoss
	c.outcomes = s.Outcomes
	c.serveWindow = slices.Clone(s.ServeWindow)
	c.sumInsLoss = s.SumInsLoss
	c.insN = s.InsN
	return nil
}
