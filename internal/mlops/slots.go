package mlops

import (
	"fmt"

	"pond/internal/cluster"
	"pond/internal/predict"
)

// The champion/challenger protocol both retraining scopes run: every
// admission is shadow-scored by each contender (ScoreAdmission), each
// departure closes those scores into a holdout observation (Close), and
// a rolling window of observations judges one contender against the
// champion (PairLoss). The cell-scoped Manager here and the fleet
// release train in fleetpipeline differ in their promotion policies.

// Slots holds one model family's contenders — champion, challenger and
// fallback — with their versions. An empty slot has version -1 and the
// zero model; the champion slot is never empty. Embedded in a state
// struct, Slots contributes the three version keys.
type Slots[M any] struct {
	Champ    M   `json:"-"`
	Chall    M   `json:"-"`
	Fb       M   `json:"-"`
	ChampVer int `json:"champ_ver"`
	ChallVer int `json:"chall_ver"`
	FbVer    int `json:"fb_ver"`
}

// NewSlots returns slots serving bootstrap as version 0, with no
// challenger and no fallback.
func NewSlots[M any](bootstrap M) Slots[M] {
	return Slots[M]{Champ: bootstrap, ChallVer: -1, FbVer: -1}
}

// Promote makes the challenger the champion and keeps the displaced
// champion as the fallback.
func (s *Slots[M]) Promote() {
	s.Fb, s.FbVer = s.Champ, s.ChampVer
	s.Champ, s.ChampVer = s.Chall, s.ChallVer
	s.DropChallenger()
}

// Demote reinstates the fallback as the champion and empties the
// fallback slot.
func (s *Slots[M]) Demote() {
	var zero M
	s.Champ, s.ChampVer = s.Fb, s.FbVer
	s.Fb, s.FbVer = zero, -1
}

// DropChallenger empties the challenger slot.
func (s *Slots[M]) DropChallenger() {
	var zero M
	s.Chall, s.ChallVer = zero, -1
}

// Pending is one in-flight VM's shadow scores: each contender's
// prediction, stamped with the version that made it (-1 for an empty
// slot), held until the VM departs. Feats are the admission features
// that become a training row at departure (nil when nothing trains).
// Serve is the prediction of the model on the request path, where that
// differs from the champion (the fleet pipeline's canary cells).
type Pending struct {
	VM       cluster.VMID `json:"vm"`
	Feats    []float64    `json:"feats,omitempty"`
	Champ    float64      `json:"champ"`
	Chall    float64      `json:"chall"`
	Fb       float64      `json:"fb"`
	Serve    float64      `json:"serve,omitempty"`
	ChampVer int          `json:"champ_ver"`
	ChallVer int          `json:"chall_ver"`
	FbVer    int          `json:"fb_ver"`
}

// Obs is one completed VM's holdout observation: each contender's loss,
// stamped with the version that predicted. A model must be judged by
// what it said, not by whichever version is live when the VM departs.
type Obs struct {
	ChampVer  int     `json:"champ_ver"`
	ChallVer  int     `json:"chall_ver"`
	FbVer     int     `json:"fb_ver"`
	ChampLoss float64 `json:"champ_loss"`
	ChallLoss float64 `json:"chall_loss"`
	FbLoss    float64 `json:"fb_loss"`
}

// score shadow-scores one input with every occupied slot: score's
// value for each, stamped with the slot's version. The caller decides
// when it scores, and so which versions the scores carry.
func (s *Slots[M]) score(score func(M) float64) Pending {
	p := Pending{ChampVer: s.ChampVer, ChallVer: s.ChallVer, FbVer: s.FbVer}
	if s.ChampVer >= 0 {
		p.Champ = score(s.Champ)
	}
	if s.ChallVer >= 0 {
		p.Chall = score(s.Chall)
	}
	if s.FbVer >= 0 {
		p.Fb = score(s.Fb)
	}
	return p
}

// ScoreAdmission shadow-scores one admission's untouched-memory
// features with every contender in s, and keeps feats as the result's
// Feats. Callers pass a copy: the models read feats through an
// interface, so a caller's own slice would escape to the heap.
func ScoreAdmission(s *Slots[predict.Untouched], vm cluster.VMID, feats []float64) Pending {
	p := s.score(func(u predict.Untouched) float64 { return u.PredictUntouchedFrac(feats) })
	p.VM, p.Feats = vm, feats
	return p
}

// Close turns p into a holdout observation against the outcome label:
// the asymmetric loss of every contender that scored it.
func (p *Pending) Close(label, overPenalty float64) Obs {
	o := Obs{ChampVer: p.ChampVer, ChallVer: p.ChallVer, FbVer: p.FbVer}
	if p.ChampVer >= 0 {
		o.ChampLoss = UMLoss(p.Champ, label, overPenalty)
	}
	if p.ChallVer >= 0 {
		o.ChallLoss = UMLoss(p.Chall, label, overPenalty)
	}
	if p.FbVer >= 0 {
		o.FbLoss = UMLoss(p.Fb, label, overPenalty)
	}
	return o
}

// Contender names the slot a pair loss judges against the champion.
type Contender int

const (
	Challenger Contender = iota
	Fallback
)

// PairLoss pools the observations in windows that the current champion
// and contender both scored, returning their mean losses and the shared
// count. The sums run through the windows in order, so pooling several
// cells' windows is one running sum.
func (s *Slots[M]) PairLoss(c Contender, windows ...[]Obs) (champ, other float64, n int) {
	ver := s.ChallVer
	if c == Fallback {
		ver = s.FbVer
	}
	if ver < 0 {
		return 0, 0, 0
	}
	for _, w := range windows {
		for _, o := range w {
			ov, loss := o.ChallVer, o.ChallLoss
			if c == Fallback {
				ov, loss = o.FbVer, o.FbLoss
			}
			if o.ChampVer != s.ChampVer || ov != ver {
				continue
			}
			other += loss
			champ += o.ChampLoss
			n++
		}
	}
	if n > 0 {
		champ /= float64(n)
		other /= float64(n)
	}
	return champ, other, n
}

// dump renders every occupied slot, champion first, as a ModelSnapshot
// with its role and version set; fill adds the model and its metadata
// and reports false for a slot with no model behind it.
func (s *Slots[M]) dump(fill func(snap *ModelSnapshot, m M) (bool, error)) ([]ModelSnapshot, error) {
	var out []ModelSnapshot
	for _, slot := range []struct {
		role  string
		model M
		ver   int
	}{
		{"champion", s.Champ, s.ChampVer},
		{"challenger", s.Chall, s.ChallVer},
		{"fallback", s.Fb, s.FbVer},
	} {
		if slot.ver < 0 {
			continue
		}
		snap := ModelSnapshot{Role: slot.role, Ver: slot.ver}
		ok, err := fill(&snap, slot.model)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, snap)
		}
	}
	return out, nil
}

// UMSlotStates exports an untouched-memory family's models in the state
// wire form, nil for an empty slot.
func UMSlotStates(s *Slots[predict.Untouched]) (champ, chall, fb *UMModelState, err error) {
	if champ, err = umModelState(s.Champ); err != nil {
		return nil, nil, nil, err
	}
	if chall, err = umModelState(s.Chall); err != nil {
		return nil, nil, nil, err
	}
	if fb, err = umModelState(s.Fb); err != nil {
		return nil, nil, nil, err
	}
	return champ, chall, fb, nil
}

// SetUMSlots rebuilds the models of an untouched-memory family whose
// versions s already carries. The champion must be occupied, and a model
// must be present exactly for the occupied slots, so scoring never meets
// a missing model.
func SetUMSlots(s *Slots[predict.Untouched], champ, chall, fb *UMModelState) error {
	if s.ChampVer < 0 {
		return fmt.Errorf("mlops: champion slot is empty (version %d)", s.ChampVer)
	}
	for _, slot := range []struct {
		role  string
		ver   int
		wire  *UMModelState
		model *predict.Untouched
	}{
		{"champion", s.ChampVer, champ, &s.Champ},
		{"challenger", s.ChallVer, chall, &s.Chall},
		{"fallback", s.FbVer, fb, &s.Fb},
	} {
		if (slot.ver >= 0) != (slot.wire != nil) {
			return fmt.Errorf("mlops: %s version %d disagrees with the state (model present: %t)",
				slot.role, slot.ver, slot.wire != nil)
		}
		var err error
		if *slot.model, err = loadUMState(slot.wire); err != nil {
			return err
		}
	}
	return nil
}

// AppendCapped appends to a FIFO buffer bounded at limit entries,
// evicting the oldest when full.
func AppendCapped[T any](buf []T, v T, limit int) []T {
	if len(buf) >= limit {
		copy(buf, buf[1:])
		buf = buf[:len(buf)-1]
	}
	return append(buf, v)
}
