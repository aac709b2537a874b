package ml

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestForestRoundTrip(t *testing.T) {
	X, y, _ := synthClassification(400, 8, 41)
	cfg := DefaultForestConfig()
	cfg.NTrees = 15
	f := FitForest(X, y, cfg)

	var buf bytes.Buffer
	if err := ExportForest(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ImportForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trees() != f.Trees() || got.Features() != 8 {
		t.Fatalf("trees = %d, width %d; want %d trees reading 8 features", got.Trees(), got.Features(), f.Trees())
	}
	for i := 0; i < 200; i++ {
		if got.PredictProb(X[i%len(X)]) != f.PredictProb(X[i%len(X)]) {
			t.Fatal("round-tripped forest predicts differently")
		}
	}
}

func TestGBMRoundTrip(t *testing.T) {
	X, y := synthRegression(500, 5, 42)
	cfg := DefaultGBMConfig()
	cfg.NTrees = 20
	m := FitGBM(X, y, cfg)

	var buf bytes.Buffer
	if err := ExportGBM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ImportGBM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quantile() != m.Quantile() || got.Stages() != m.Stages() || got.Features() != 5 {
		t.Fatal("metadata lost")
	}
	for i := 0; i < 200; i++ {
		if got.Predict(X[i%len(X)]) != m.Predict(X[i%len(X)]) {
			t.Fatal("round-tripped GBM predicts differently")
		}
	}
}

func TestImportForestRejectsGarbage(t *testing.T) {
	if _, err := ImportForest(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ImportForest(strings.NewReader(`{"kind":"gbm","trees":[]}`)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := ImportForest(strings.NewReader(`{"kind":"forest","trees":[]}`)); err == nil {
		t.Fatal("empty forest accepted")
	}
}

func TestImportGBMRejectsGarbage(t *testing.T) {
	if _, err := ImportGBM(strings.NewReader(`{"kind":"forest"}`)); err == nil {
		t.Fatal("wrong kind accepted")
	}
	// Corrupt node indices must not crash the importer.
	bad := `{"kind":"gbm","init":0,"lr":0.1,"quantile":0.5,` +
		`"trees":[{"nodes":[{"f":0,"t":0.5,"l":99,"r":1,"leaf":false}],"features":1,"leaves":0}]}`
	if _, err := ImportGBM(strings.NewReader(bad)); err == nil {
		t.Fatal("corrupt tree accepted")
	}
}

func TestImportForestDetectsMissingLeaves(t *testing.T) {
	// A tree claiming 2 leaves but containing 1 must be rejected.
	bad := `{"kind":"forest","trees":[{"nodes":[{"leaf":true,"id":0,"v":1}],"features":1,"leaves":2}]}`
	if _, err := ImportForest(strings.NewReader(bad)); err == nil {
		t.Fatal("missing leaf accepted")
	}
}

// exportedModels returns a small trained GBM and forest in their wire
// forms, decoded into generic JSON for mutation.
func exportedModels(t testing.TB) (gbm, forest []byte) {
	X, y := synthRegression(120, 4, 7)
	gcfg := DefaultGBMConfig()
	gcfg.NTrees = 3
	var gb bytes.Buffer
	if err := ExportGBM(&gb, FitGBM(X, y, gcfg)); err != nil {
		t.Fatal(err)
	}
	Xc, yc, _ := synthClassification(120, 6, 8)
	fcfg := DefaultForestConfig()
	fcfg.NTrees = 3
	var fb bytes.Buffer
	if err := ExportForest(&fb, FitForest(Xc, yc, fcfg)); err != nil {
		t.Fatal(err)
	}
	return gb.Bytes(), fb.Bytes()
}

// mutateFirstTree decodes a model wire form, applies mutate to its
// first tree, and re-encodes it.
func mutateFirstTree(t testing.TB, wire []byte, mutate func(tree map[string]any)) []byte {
	var m map[string]any
	if err := json.Unmarshal(wire, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m["trees"].([]any)[0].(map[string]any))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rootNode returns a tree's first (root) node for mutation.
func rootNode(tree map[string]any) map[string]any {
	return tree["nodes"].([]any)[0].(map[string]any)
}

// TestImportRejectsCorruptTrees feeds structurally broken trees to both
// importers: each must return an error. Before the structural checks a
// self-referencing node overflowed the stack (which recover cannot
// catch), an out-of-width split feature panicked at the first
// prediction, and a negative leaf count panicked in the import.
func TestImportRejectsCorruptTrees(t *testing.T) {
	gbm, forest := exportedModels(t)
	for _, tc := range []struct {
		name   string
		forest bool
		mutate func(tree map[string]any)
	}{
		{"root-is-its-own-child", false, func(tr map[string]any) { rootNode(tr)["l"] = 0 }},
		{"split-feature-beyond-width", false, func(tr map[string]any) { rootNode(tr)["f"] = 999 }},
		{"negative-split-feature", false, func(tr map[string]any) { rootNode(tr)["f"] = -1 }},
		{"negative-leaf-count", true, func(tr map[string]any) { tr["leaves"] = -1 }},
		{"leaf-count-beyond-nodes", true, func(tr map[string]any) { tr["leaves"] = 1 << 40 }},
		{"right-child-shares-left", false, func(tr map[string]any) { rootNode(tr)["r"] = 1 }},
		{"right-child-backwards", true, func(tr map[string]any) { rootNode(tr)["r"] = 0 }},
		{"unreachable-node", false, func(tr map[string]any) {
			tr["nodes"] = append(tr["nodes"].([]any), map[string]any{"leaf": true, "id": 0})
		}},
		{"repeated-leaf-id", true, func(tr map[string]any) {
			for _, n := range tr["nodes"].([]any) {
				if nd := n.(map[string]any); nd["leaf"] == true {
					nd["id"] = 0
				}
			}
		}},
		{"width-differs-from-other-trees", false, func(tr map[string]any) { tr["features"] = 100 }},
		{"width-beyond-limit", true, func(tr map[string]any) { tr["features"] = 1 << 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.forest {
				_, err = ImportForest(bytes.NewReader(mutateFirstTree(t, forest, tc.mutate)))
			} else {
				_, err = ImportGBM(bytes.NewReader(mutateFirstTree(t, gbm, tc.mutate)))
			}
			if err == nil {
				t.Fatal("corrupt tree accepted")
			}
		})
	}
}
