package ml

import (
	"bytes"
	"testing"
)

// FuzzImportModel feeds arbitrary bytes to both model importers. The
// contract: an import returns an error, or a model that predicts on a
// zero input of its declared width without panicking. Restores decode
// model wire forms from checkpoint files, so a corrupt file must come
// back as an error, never as a crash.
func FuzzImportModel(f *testing.F) {
	gbm, forest := exportedModels(f)
	f.Add(gbm)
	f.Add(forest)
	f.Add(mutateFirstTree(f, gbm, func(tr map[string]any) { rootNode(tr)["l"] = 0 }))
	f.Add(mutateFirstTree(f, gbm, func(tr map[string]any) { rootNode(tr)["f"] = 999 }))
	f.Add(mutateFirstTree(f, forest, func(tr map[string]any) { tr["leaves"] = -1 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := ImportGBM(bytes.NewReader(data)); err == nil {
			g.Predict(make([]float64, g.Features()))
		}
		if m, err := ImportForest(bytes.NewReader(data)); err == nil {
			m.PredictProb(make([]float64, m.Features()))
		}
	})
}
