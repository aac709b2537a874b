package fleetpipeline

import (
	"encoding/json"

	"pond/internal/mlops"
)

// SnapshotJSON dumps the release train's live models — champion first —
// in the same auditable wire form as the per-cell lifecycle dumps
// (internal/mlops), with Cell set to -1: fleet releases belong to no
// single cell.
func (m *Manager) SnapshotJSON() (json.RawMessage, error) {
	out, err := mlops.DumpUM(&m.slots, -1, func(ver int) (float64, int) {
		ms := m.meta[ver]
		return ms.AtSec, ms.Rows
	})
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(out, "", "  ")
}
