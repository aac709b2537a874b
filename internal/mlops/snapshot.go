package mlops

import (
	"bytes"
	"encoding/json"
	"fmt"

	"pond/internal/ml"
	"pond/internal/predict"
)

// Versioned model snapshots. The paper's pipeline exports retrained
// models (to ONNX) before the serving system picks them up (§5);
// ml/serialize.go plays the ONNX role here, and the snapshot adds the
// lifecycle metadata — version, role, training provenance, serving
// threshold — that makes a dump auditable.

// ModelSnapshot is one model in a lifecycle dump.
type ModelSnapshot struct {
	Cell   int    `json:"cell"`
	Family string `json:"family"` // um | insens
	Role   string `json:"role"`   // champion | challenger | fallback
	Ver    int    `json:"version"`
	Name   string `json:"name"`
	// TrainedAtSec and Rows are zero for version 0 (the bootstrap model,
	// trained offline or purely heuristic).
	TrainedAtSec float64 `json:"trained_at_sec,omitempty"`
	Rows         int     `json:"rows,omitempty"`
	// Threshold is the insensitivity serving threshold (insens only).
	Threshold float64 `json:"threshold,omitempty"`
	// Model is the ml/serialize wire form; {"kind":"heuristic",...} for
	// models with no tree ensemble underneath.
	Model json.RawMessage `json:"model"`
}

// Snapshot dumps every live model with its lifecycle metadata, champion
// first, in a deterministic order.
func (m *Manager) Snapshot() ([]ModelSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, err := DumpUM(&m.um.Slots, m.cell, m.um.provenance)
	if err != nil {
		return nil, err
	}
	ins, err := m.ins.dump(func(snap *ModelSnapshot, c insModel) (bool, error) {
		if c.Insensitivity == nil {
			return false, nil
		}
		raw, err := marshalInsens(c.Insensitivity)
		snap.Cell, snap.Family, snap.Name, snap.Threshold, snap.Model = m.cell, FamilyInsens, c.Name(), c.thr, raw
		snap.TrainedAtSec, snap.Rows = m.ins.provenance(snap.Ver)
		return true, err
	})
	if err != nil {
		return nil, err
	}
	return append(out, ins...), nil
}

// DumpUM renders an untouched-memory family's live models, champion
// first, for cell (-1 for a fleet-wide release); provenance returns a
// version's training time and row count, zero for a bootstrap model.
func DumpUM(s *Slots[predict.Untouched], cell int, provenance func(ver int) (atSec float64, rows int)) ([]ModelSnapshot, error) {
	return s.dump(func(snap *ModelSnapshot, u predict.Untouched) (bool, error) {
		raw, err := marshalUM(u)
		snap.Cell, snap.Family, snap.Name, snap.Model = cell, FamilyUM, u.Name(), raw
		snap.TrainedAtSec, snap.Rows = provenance(snap.Ver)
		return true, err
	})
}

// SnapshotJSON renders the dump as one JSON document.
func (m *Manager) SnapshotJSON() (json.RawMessage, error) {
	snaps, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(snaps, "", "  ")
}

func marshalUM(u predict.Untouched) (json.RawMessage, error) {
	if g, ok := u.(*predict.GBMUntouched); ok {
		var buf bytes.Buffer
		if err := ml.ExportGBM(&buf, g.GBM()); err != nil {
			return nil, fmt.Errorf("mlops: exporting %s: %w", u.Name(), err)
		}
		return bytes.TrimSpace(buf.Bytes()), nil
	}
	return json.Marshal(map[string]string{"kind": "heuristic", "name": u.Name()})
}

func marshalInsens(i predict.Insensitivity) (json.RawMessage, error) {
	if f, ok := i.(*predict.ForestModel); ok {
		var buf bytes.Buffer
		if err := ml.ExportForest(&buf, f.Forest()); err != nil {
			return nil, fmt.Errorf("mlops: exporting %s: %w", i.Name(), err)
		}
		return bytes.TrimSpace(buf.Bytes()), nil
	}
	return json.Marshal(map[string]string{"kind": "heuristic", "name": i.Name()})
}
