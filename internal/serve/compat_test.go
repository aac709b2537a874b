package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pond"
)

// TestRestoreStateFileFromEarlierBuild restores a version-2 state file
// that pondserve wrote at commit cb61111 (testdata, gzipped). It holds
// two runs: r1 finished (cell-scope retraining, an elastic pool and a
// drift) with its report, and r2, a frozen-model run held at t=750 with
// a live emc-fail injected. The terminal run must serve its stored
// report byte for byte, and the held run must finish with the hash the
// writing daemon reached resuming the same file, which is also the
// batch hash of its config.
func TestRestoreStateFileFromEarlierBuild(t *testing.T) {
	const heldSHA = "3fe105879aab4bffac9015e3b18747bf3516b9f223d60ea218ddd29b9de7b7f3"
	data := gunzipFile(t, filepath.Join("testdata", "state-v2-cb61111.json.gz"))
	var ck struct {
		Version int `json:"version"`
		Runs    []struct {
			ID     string          `json:"id"`
			Report json.RawMessage `json:"report"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Version != checkpointVersion || len(ck.Runs) != 2 || ck.Runs[0].ID != "r1" || ck.Runs[0].Report == nil {
		t.Fatalf("fixture is not the expected v2 file: version %d, %d runs", ck.Version, len(ck.Runs))
	}
	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StatePath: statePath, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp := mustGet(t, ts.URL+"/runs/r1")
	var view struct {
		State  string          `json:"state"`
		Report json.RawMessage `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, ck.Runs[0].Report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, view.Report); err != nil {
		t.Fatal(err)
	}
	if view.State != StateDone || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("restored terminal run %s serves report\n%s\nwant the stored\n%s", view.State, got.Bytes(), want.Bytes())
	}

	held := waitState(t, ts.URL, "r2", StateHolding)
	if held.Progress.NowSec != 750 || len(held.Config.Injections) != 1 {
		t.Fatalf("restored held run at t=%g with %d injections, want t=750 with the live emc-fail",
			held.Progress.NowSec, len(held.Config.Injections))
	}
	rresp := postJSON(t, ts.URL+"/runs/r2/resume", struct{}{})
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d", rresp.StatusCode)
	}
	done := waitState(t, ts.URL, "r2", StateDone)
	if done.Report.LogSHA256 != heldSHA {
		t.Fatalf("resumed run sha %s, want %s (the writing daemon's)", done.Report.LogSHA256, heldSHA)
	}
	batch, err := pond.RunFleet(context.Background(), done.Config)
	if err != nil {
		t.Fatal(err)
	}
	if batch.LogSHA256 != heldSHA {
		t.Fatalf("batch RunFleet on the held run's config: sha %s, want %s", batch.LogSHA256, heldSHA)
	}
}

func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
