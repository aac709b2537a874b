package mlops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"pond/internal/cluster"
	"pond/internal/ml"
	"pond/internal/pmu"
	"pond/internal/predict"
)

// Whole-lifecycle state serialization: where Snapshot dumps the live
// models for auditing, State captures everything a Manager holds — both
// families' contender slots, rolling holdout windows, pending shadow
// scores, training buffers, and the event history — so a paused fleet
// run can be restored without replaying the simulated time that
// produced the models.

// UMModelState is one untouched-memory slot's wire form. Margin is
// carried beside the ensemble because the GBM export does not include
// it.
type UMModelState struct {
	Model  json.RawMessage `json:"model"`
	Margin float64         `json:"margin,omitempty"`
}

// InsModelState is one insensitivity slot's wire form with its serving
// threshold.
type InsModelState struct {
	Model     json.RawMessage `json:"model"`
	Threshold float64         `json:"threshold"`
}

// State is the full serializable state of a Manager. A monitor-only
// manager's state has no training rows.
type State struct {
	UMChamp *UMModelState                `json:"um_champ,omitempty"`
	UMChall *UMModelState                `json:"um_chall,omitempty"`
	UMFb    *UMModelState                `json:"um_fb,omitempty"`
	UMLC    lifecycle[predict.Untouched] `json:"um_lc"`
	Pending []Pending                    `json:"pending,omitempty"`
	UMX     [][]float64                  `json:"um_x,omitempty"`
	UMY     []float64                    `json:"um_y,omitempty"`
	UMMeta  []trainMeta                  `json:"um_meta,omitempty"`

	InsChamp *InsModelState      `json:"ins_champ,omitempty"`
	InsChall *InsModelState      `json:"ins_chall,omitempty"`
	InsFb    *InsModelState      `json:"ins_fb,omitempty"`
	InsLC    lifecycle[insModel] `json:"ins_lc"`
	InsX     [][]float64         `json:"ins_x,omitempty"`
	InsY     []float64           `json:"ins_y,omitempty"`
	InsMeta  []trainMeta         `json:"ins_meta,omitempty"`

	Events []Event `json:"events,omitempty"`
}

func metaList(m map[int]trainMeta) []trainMeta {
	out := make([]trainMeta, 0, len(m))
	for _, tm := range m {
		out = append(out, tm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ver < out[j].Ver })
	return out
}

func metaMap(list []trainMeta) map[int]trainMeta {
	m := make(map[int]trainMeta, len(list))
	for _, tm := range list {
		m[tm.Ver] = tm
	}
	return m
}

// PendingList returns the pending scores ordered by VM id, for a
// deterministic state. Feature vectors are shared: nothing writes to
// them once recorded.
func PendingList(m map[cluster.VMID]Pending) []Pending {
	out := make([]Pending, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VM < out[j].VM })
	return out
}

// PendingMap indexes restored pending scores by VM id, each with its
// own copy of the features.
func PendingMap(list []Pending) map[cluster.VMID]Pending {
	m := make(map[cluster.VMID]Pending, len(list))
	for _, p := range list {
		p.Feats = slices.Clone(p.Feats)
		m[p.VM] = p
	}
	return m
}

// CloneRows deep-copies restored training rows. Decoded rows carry the
// JSON decoder's spare capacity (a third more for a 12-feature row);
// the copies are sized like the rows a live run records.
func CloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

func umModelState(u predict.Untouched) (*UMModelState, error) {
	if u == nil {
		return nil, nil
	}
	if f, ok := u.(predict.FixedUntouched); ok {
		// marshalUM keeps only the heuristic's name; Frac must ride along.
		raw, err := json.Marshal(map[string]any{"kind": "heuristic", "name": f.Name(), "frac": f.Frac})
		if err != nil {
			return nil, err
		}
		return &UMModelState{Model: raw}, nil
	}
	raw, err := marshalUM(u)
	if err != nil {
		return nil, err
	}
	s := &UMModelState{Model: raw}
	if g, ok := u.(*predict.GBMUntouched); ok {
		s.Margin = g.Margin
	}
	return s, nil
}

func insModelState(c insModel) (*InsModelState, error) {
	if c.Insensitivity == nil {
		return nil, nil
	}
	raw, err := marshalInsens(c.Insensitivity)
	if err != nil {
		return nil, err
	}
	return &InsModelState{Model: raw, Threshold: c.thr}, nil
}

// loadUMState rebuilds an untouched-memory model from its wire form,
// heuristics included. A trained model must read exactly the
// untouched-memory feature vector.
func loadUMState(s *UMModelState) (predict.Untouched, error) {
	if s == nil {
		return nil, nil
	}
	var probe struct {
		Kind string  `json:"kind"`
		Name string  `json:"name"`
		Frac float64 `json:"frac"`
	}
	if err := json.Unmarshal(s.Model, &probe); err != nil {
		return nil, fmt.Errorf("mlops: um model state: %w", err)
	}
	switch probe.Kind {
	case "gbm":
		g, err := ml.ImportGBM(bytes.NewReader(s.Model))
		if err != nil {
			return nil, fmt.Errorf("mlops: um model: %w", err)
		}
		if g.Features() != predict.UMFeatureCount {
			return nil, fmt.Errorf("mlops: um model reads %d features, the untouched-memory input has %d",
				g.Features(), predict.UMFeatureCount)
		}
		m := predict.WrapGBMUntouched(g)
		m.Margin = s.Margin
		return m, nil
	case "heuristic":
		switch probe.Name {
		case "history-quantile":
			return predict.HistoryQuantileUM{}, nil
		case "Fixed":
			return predict.FixedUntouched{Frac: probe.Frac}, nil
		}
	}
	return nil, fmt.Errorf("mlops: cannot rebuild um model kind %q name %q", probe.Kind, probe.Name)
}

// loadInsState rebuilds an insensitivity contender from its wire form.
// A forest must read exactly the PMU counter vector.
func loadInsState(s *InsModelState) (insModel, error) {
	if s == nil {
		return insModel{}, nil
	}
	var probe struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(s.Model, &probe); err != nil {
		return insModel{}, fmt.Errorf("mlops: insens model state: %w", err)
	}
	switch probe.Kind {
	case "forest":
		f, err := ml.ImportForest(bytes.NewReader(s.Model))
		if err != nil {
			return insModel{}, fmt.Errorf("mlops: insens model: %w", err)
		}
		if f.Features() != pmu.NumCounters {
			return insModel{}, fmt.Errorf("mlops: insens model reads %d features, the counter vector has %d",
				f.Features(), pmu.NumCounters)
		}
		return insModel{predict.WrapForestModel(f), s.Threshold}, nil
	case "heuristic":
		switch probe.Name {
		case "Memory-Bound":
			return insModel{predict.CounterThreshold{Counter: pmu.MemoryBound}, s.Threshold}, nil
		case "DRAM-Bound":
			return insModel{predict.CounterThreshold{Counter: pmu.DRAMBound}, s.Threshold}, nil
		}
	}
	return insModel{}, fmt.Errorf("mlops: cannot rebuild insens model kind %q name %q", probe.Kind, probe.Name)
}

// State captures the manager's full state for serialization.
func (m *Manager) State() (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := State{
		UMLC:    m.um.clone(),
		Pending: PendingList(m.pending),
		UMX:     slices.Clone(m.umX),
		UMY:     slices.Clone(m.umY),
		UMMeta:  metaList(m.um.meta),
		InsLC:   m.ins.clone(),
		InsX:    slices.Clone(m.insX),
		InsY:    slices.Clone(m.insY),
		InsMeta: metaList(m.ins.meta),
		Events:  slices.Clone(m.events),
	}
	var err error
	if s.UMChamp, s.UMChall, s.UMFb, err = UMSlotStates(&m.um.Slots); err != nil {
		return State{}, err
	}
	if s.InsChamp, err = insModelState(m.ins.Champ); err != nil {
		return State{}, err
	}
	if s.InsChall, err = insModelState(m.ins.Chall); err != nil {
		return State{}, err
	}
	if s.InsFb, err = insModelState(m.ins.Fb); err != nil {
		return State{}, err
	}
	return s, nil
}

// SetState restores a state captured by State onto a freshly built
// manager (same config, cell, server wiring). It rebuilds every model
// slot from its wire form and re-installs the serving pair — models and
// insensitivity threshold — without disturbing the serving generation,
// which the caller restores separately on the predict.Server. A
// monitor-only manager drops any training rows and pending features the
// state carries (a snapshot from a build that kept them while
// monitoring).
func (m *Manager) SetState(s State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	um, ins := s.UMLC.clone(), s.InsLC.clone()
	if err := SetUMSlots(&um.Slots, s.UMChamp, s.UMChall, s.UMFb); err != nil {
		return err
	}
	var err error
	if ins.Champ, err = loadInsState(s.InsChamp); err != nil {
		return err
	}
	if ins.Chall, err = loadInsState(s.InsChall); err != nil {
		return err
	}
	if ins.Fb, err = loadInsState(s.InsFb); err != nil {
		return err
	}
	um.meta, ins.meta = metaMap(s.UMMeta), metaMap(s.InsMeta)
	m.um, m.ins = um, ins
	m.pending = PendingMap(s.Pending)
	if m.cfg.MonitorOnly {
		for id, p := range m.pending {
			p.Feats = nil
			m.pending[id] = p
		}
	} else {
		m.umX, m.umY = CloneRows(s.UMX), slices.Clone(s.UMY)
		m.insX, m.insY = CloneRows(s.InsX), slices.Clone(s.InsY)
	}
	m.events = slices.Clone(s.Events)
	m.pushThresholdLocked()
	return nil
}

// ServingModels returns the current champions (and the insensitivity
// serving threshold) so a restoring caller can re-pin the inference
// server.
func (m *Manager) ServingModels() (predict.Insensitivity, float64, predict.Untouched) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ins.Champ.Insensitivity, m.ins.Champ.thr, m.um.Champ
}
