package pond

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// retrainSnapshot pauses a one-cell, cell-scope retraining run at
// t=2100, once a trained GBM sits in the untouched-memory challenger
// slot, and returns its snapshot with the snapshot's JSON encoding.
func retrainSnapshot(t *testing.T) (*FleetSnapshot, []byte) {
	t.Helper()
	ctx := context.Background()
	o := Defaults()
	o.Cluster.Cells = 1
	o.Cluster.DurationSec = 4000
	o.Model.RetrainEverySec = 500
	o.Model.MinTrainRows = 16
	fr, err := StartFleet(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Advance(ctx, 2100); err != nil {
		t.Fatal(err)
	}
	snap, err := fr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return snap, data
}

// decodeVerbatim decodes JSON for mutation, keeping numbers verbatim so
// RNG states survive re-encoding.
func decodeVerbatim(t *testing.T, data []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// cellMlops returns the first cell's model-lifecycle state in a decoded
// snapshot file.
func cellMlops(file map[string]any) map[string]any {
	sim := file["sim"].(map[string]any)
	return sim["cells"].([]any)[0].(map[string]any)["mlops"].(map[string]any)
}

// slotTrees returns the trees of a model slot in a lifecycle state, nil
// when the slot is empty or holds no tree ensemble.
func slotTrees(mlops map[string]any, slot string) []any {
	s, ok := mlops[slot].(map[string]any)
	if !ok {
		return nil
	}
	trees, _ := s["model"].(map[string]any)["trees"].([]any)
	return trees
}

// forestSlot names a lifecycle slot holding a trained or offline forest.
func forestSlot(t *testing.T, mlops map[string]any) string {
	t.Helper()
	for _, slot := range []string{"ins_chall", "ins_champ", "ins_fb"} {
		if slotTrees(mlops, slot) != nil {
			return slot
		}
	}
	t.Fatal("no insensitivity forest in the snapshot")
	return ""
}

// TestRestoreFleetRejectsCorruptModels tampers with the model wire forms
// inside a real snapshot file: every mutation must fail the restore with
// an error. Before the import checks, a node that is its own child killed
// the restoring process with a stack overflow, an out-of-width split
// feature restored and then panicked on the next Advance, and a negative
// forest leaf count panicked inside the import.
func TestRestoreFleetRejectsCorruptModels(t *testing.T) {
	snap, data := retrainSnapshot(t)
	root := func(trees []any) map[string]any {
		return trees[0].(map[string]any)["nodes"].([]any)[0].(map[string]any)
	}
	setWidth := func(trees []any, w int) {
		for _, tr := range trees {
			tr.(map[string]any)["features"] = w
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, mlops map[string]any)
	}{
		{"gbm-node-is-its-own-child", func(t *testing.T, m map[string]any) { root(slotTrees(m, "um_chall"))["l"] = 0 }},
		{"gbm-split-feature-999", func(t *testing.T, m map[string]any) { root(slotTrees(m, "um_chall"))["f"] = 999 }},
		{"forest-negative-leaves", func(t *testing.T, m map[string]any) {
			slotTrees(m, forestSlot(t, m))[0].(map[string]any)["leaves"] = -1
		}},
		{"gbm-wider-than-um-features", func(t *testing.T, m map[string]any) { setWidth(slotTrees(m, "um_chall"), 13) }},
		{"forest-wider-than-counters", func(t *testing.T, m map[string]any) { setWidth(slotTrees(m, forestSlot(t, m)), 201) }},
		{"challenger-version-without-model", func(t *testing.T, m map[string]any) { delete(m, "um_chall") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := decodeVerbatim(t, data)
			m := cellMlops(file)
			if slotTrees(m, "um_chall") == nil {
				t.Fatal("snapshot has no trained untouched-memory challenger to corrupt")
			}
			tc.mutate(t, m)
			tampered, err := json.Marshal(file)
			if err != nil {
				t.Fatal(err)
			}
			var bad FleetSnapshot
			if err := json.Unmarshal(tampered, &bad); err != nil {
				t.Fatal(err)
			}
			_, err = RestoreFleet(context.Background(), &bad)
			if err == nil {
				t.Fatal("restore accepted a corrupt model")
			}
			if msg := err.Error(); !strings.Contains(msg, "cell 0") || strings.Count(msg, "mlops:") != 1 {
				t.Fatalf("error %q should name cell 0 and say mlops: once", msg)
			}
		})
	}
	// The untouched snapshot still restores.
	if _, err := RestoreFleet(context.Background(), snap); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	}
}
