package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pond"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// tinyOpts is a fast two-cell run used across the handler tests.
func tinyOpts() map[string]any {
	return map[string]any{
		"cluster": map[string]any{"hosts": 4, "emcs": 4, "pool_gb": 64, "cells": 2, "duration_sec": 300},
		"arrival": map[string]any{"process": "poisson", "rate_per_sec": 0.1, "mean_lifetime_sec": 150},
		"model":   map[string]any{"disabled": true},
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnapshot(t *testing.T, resp *http.Response) Snapshot {
	t.Helper()
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls GET /runs/{id} until the run reaches want.
func waitState(t *testing.T, base, id, want string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		s := decodeSnapshot(t, resp)
		if s.State == want {
			return s
		}
		if s.State == StateFailed {
			t.Fatalf("run %s failed: %s", id, s.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %s", id, want)
	return Snapshot{}
}

// TestEndpointsTable drives every endpoint through its error and
// success paths.
func TestEndpointsTable(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()

	t.Run("healthz", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var body struct {
			OK   bool `json:"ok"`
			Runs int  `json:"runs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !body.OK {
			t.Fatalf("body: %+v err=%v", body, err)
		}
	})

	t.Run("start-bad-json", func(t *testing.T) {
		resp, err := client.Post(ts.URL+"/runs", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("no structured error: %+v err=%v", e, err)
		}
	})

	t.Run("start-unknown-field", func(t *testing.T) {
		resp, err := client.Post(ts.URL+"/runs", "application/json",
			strings.NewReader(`{"opts": {"warp_factor": 9}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("start-invalid-opts", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/runs", map[string]any{
			"opts": map[string]any{"cluster": map[string]any{"topology": "moebius"}},
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "topology") {
			t.Fatalf("error does not mention topology: %+v", e)
		}
	})

	t.Run("start-empty-opts", func(t *testing.T) {
		// All-default options: the horizon must come from normalization
		// (the raw config carries duration_sec 0), so the run advances and
		// completes instead of busy-spinning at t=0.
		resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": map[string]any{}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("start status %d", resp.StatusCode)
		}
		snap := decodeSnapshot(t, resp)
		if snap.Progress.DurationSec <= 0 {
			t.Fatalf("progress horizon %g, want the normalized default", snap.Progress.DurationSec)
		}
		done := waitState(t, ts.URL, snap.ID, StateDone)
		if done.Report == nil || !done.Progress.Done {
			t.Fatalf("defaulted run finished without a report: %+v", done)
		}
	})

	t.Run("start-hold-past-horizon", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{301}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "horizon") {
			t.Fatalf("error does not mention the horizon: %+v err=%v", e, err)
		}
	})

	t.Run("get-unknown-run", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/runs/r999")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("inject-unknown-run", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/runs/r999/inject", map[string]any{"injection": "emc-fail@t=100"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("events-unknown-run", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/runs/r999/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("run-lifecycle", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts()})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("start status %d", resp.StatusCode)
		}
		snap := decodeSnapshot(t, resp)
		if snap.ID == "" || snap.Config.Cluster.Cells != 2 {
			t.Fatalf("created snapshot: %+v", snap)
		}
		done := waitState(t, ts.URL, snap.ID, StateDone)
		if done.Report == nil || done.Report.LogSHA256 == "" {
			t.Fatalf("done without report: %+v", done)
		}
		if done.Progress.Arrivals == 0 || !done.Progress.Done {
			t.Fatalf("done progress: %+v", done.Progress)
		}

		// List must include the run.
		lresp, err := client.Get(ts.URL + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		defer lresp.Body.Close()
		var list struct {
			Runs []Snapshot `json:"runs"`
		}
		if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range list.Runs {
			found = found || r.ID == snap.ID
		}
		if !found {
			t.Fatalf("run %s missing from list %+v", snap.ID, list.Runs)
		}

		// Injecting into the completed run conflicts.
		iresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/inject", map[string]any{"injection": "emc-fail@t=290"})
		defer iresp.Body.Close()
		if iresp.StatusCode != http.StatusConflict {
			t.Fatalf("inject-after-completion status %d, want 409", iresp.StatusCode)
		}
		var e apiError
		if err := json.NewDecoder(iresp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("no structured 409 body: %+v err=%v", e, err)
		}

		// Resuming a non-holding run conflicts too.
		rresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/resume", struct{}{})
		defer rresp.Body.Close()
		if rresp.StatusCode != http.StatusConflict {
			t.Fatalf("resume-non-holding status %d, want 409", rresp.StatusCode)
		}
	})

	t.Run("inject-bad-bodies", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{100}})
		snap := decodeSnapshot(t, resp)
		waitState(t, ts.URL, snap.ID, StateHolding)
		cases := []struct {
			body string
			want string
		}{
			{`{nope`, "bad request body"},
			{`{"injection": "meteor@t=1"}`, "unknown injection"},
			{`{"injection": "emc-fail@t=200:emc=99"}`, "targets EMC"},
			{`{"injection": "emc-fail@t=50"}`, "before the current time"},
			{`{"injection": "surge@t=200:dur=100:x=1e300"}`, "cap"},
			{`{}`, `missing "injection"`},
		}
		for _, tc := range cases {
			iresp, err := client.Post(ts.URL+"/runs/"+snap.ID+"/inject", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e apiError
			if err := json.NewDecoder(iresp.Body).Decode(&e); err != nil {
				t.Fatalf("body %q: decode: %v", tc.body, err)
			}
			iresp.Body.Close()
			if iresp.StatusCode != http.StatusBadRequest {
				t.Fatalf("body %q: status %d, want 400 (%s)", tc.body, iresp.StatusCode, e.Error)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("body %q: error %q does not mention %q", tc.body, e.Error, tc.want)
			}
		}
	})
}

// streamEvents reads the NDJSON stream until EOF, returning the events.
func streamEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// reassemble rebuilds the deterministic event log from streamed events:
// cell streams in cell order, fleet stream (-1) last.
func reassemble(events []Event, cells int) string {
	streams := make(map[int][]string)
	for _, e := range events {
		streams[e.Cell] = append(streams[e.Cell], e.Line)
	}
	var b strings.Builder
	for c := 0; c < cells; c++ {
		for _, line := range streams[c] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	for _, line := range streams[-1] {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeterminismBridgeHTTP is the end-to-end acceptance check: POST a
// run with a hold, inject emc-fail live over HTTP, resume, and the
// streamed event log must hash identically to the equivalent batch
// RunFleet with the injection scheduled up front — at workers 1 and 4.
func TestDeterminismBridgeHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	for _, workers := range []int{1, 4} {
		opts := tinyOpts()
		opts["engine"] = map[string]any{"workers": workers}
		resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": opts, "hold_at_sec": []float64{120}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("start status %d", resp.StatusCode)
		}
		snap := decodeSnapshot(t, resp)
		waitState(t, ts.URL, snap.ID, StateHolding)

		iresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/inject", map[string]any{"injection": "emc-fail@t=200:emc=1"})
		if iresp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(iresp.Body)
			t.Fatalf("inject status %d: %s", iresp.StatusCode, body)
		}
		iresp.Body.Close()

		rresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/resume", struct{}{})
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("resume status %d", rresp.StatusCode)
		}
		rresp.Body.Close()

		done := waitState(t, ts.URL, snap.ID, StateDone)
		events := streamEvents(t, ts.URL+"/runs/"+snap.ID+"/events")
		log := reassemble(events, done.Config.Cluster.Cells)
		streamed := pond.EventLogSHA256(log, done.Config.Cluster.Cells)
		if streamed != done.Report.LogSHA256 {
			t.Fatalf("workers=%d: streamed log sha %s != served report sha %s", workers, streamed, done.Report.LogSHA256)
		}

		// The equivalent batch run: same options, injection scheduled.
		var batchOpts pond.FleetOpts
		data, _ := json.Marshal(opts)
		if err := json.Unmarshal(data, &batchOpts); err != nil {
			t.Fatal(err)
		}
		inj, err := pond.ParseInjection("emc-fail@t=200:emc=1")
		if err != nil {
			t.Fatal(err)
		}
		batchOpts.Injections = []pond.Injection{inj}
		batch, err := pond.RunFleet(context.Background(), batchOpts)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != batch.LogSHA256 {
			t.Fatalf("workers=%d: live HTTP sha %s != batch sha %s", workers, streamed, batch.LogSHA256)
		}
	}
}

// TestEventsResumeFromSeq checks ?from=N replays exactly the suffix.
func TestEventsResumeFromSeq(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts()})
	snap := decodeSnapshot(t, resp)
	waitState(t, ts.URL, snap.ID, StateDone)

	all := streamEvents(t, ts.URL+"/runs/"+snap.ID+"/events")
	if len(all) < 4 {
		t.Fatalf("too few events to split: %d", len(all))
	}
	for i, e := range all {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	mid := len(all) / 2
	tail := streamEvents(t, ts.URL+fmt.Sprintf("/runs/%s/events?from=%d", snap.ID, mid))
	if len(tail) != len(all)-mid {
		t.Fatalf("resume length %d, want %d", len(tail), len(all)-mid)
	}
	for i, e := range tail {
		if e != all[mid+i] {
			t.Fatalf("resumed event %d = %+v, want %+v", i, e, all[mid+i])
		}
	}

	badResp, err := http.Get(ts.URL + "/runs/" + snap.ID + "/events?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from status %d, want 400", badResp.StatusCode)
	}
}

// TestEventsStreamLive attaches a streamer while the run is holding and
// checks it follows the run to completion.
func TestEventsStreamLive(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{150}})
	snap := decodeSnapshot(t, resp)
	waitState(t, ts.URL, snap.ID, StateHolding)

	type result struct {
		events []Event
	}
	ch := make(chan result, 1)
	go func() {
		ch <- result{streamEvents(t, ts.URL+"/runs/"+snap.ID+"/events")}
	}()

	// Give the streamer a moment to attach mid-run, then release.
	time.Sleep(50 * time.Millisecond)
	rresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/resume", struct{}{})
	rresp.Body.Close()
	done := waitState(t, ts.URL, snap.ID, StateDone)

	select {
	case got := <-ch:
		if len(got.events) != done.Events {
			t.Fatalf("live stream saw %d events, run produced %d", len(got.events), done.Events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live stream never completed")
	}
}

// TestShutdownParksRunsAndClosesStreams checks graceful shutdown is
// prompt even with a follower attached to a run that would never finish
// on its own: Park returns, the run lands in the parked terminal state,
// the NDJSON stream EOFs, and later injections refuse with 409.
func TestShutdownParksRunsAndClosesStreams(t *testing.T) {
	s, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{150}})
	snap := decodeSnapshot(t, resp)
	waitState(t, ts.URL, snap.ID, StateHolding)

	ch := make(chan []Event, 1)
	go func() {
		ch <- streamEvents(t, ts.URL+"/runs/"+snap.ID+"/events")
	}()
	// Give the streamer a moment to attach and block on the holding run.
	time.Sleep(50 * time.Millisecond)

	parked := make(chan struct{})
	go func() {
		s.Park()
		close(parked)
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("Park never returned with a holding run attached")
	}

	select {
	case evs := <-ch:
		got := waitState(t, ts.URL, snap.ID, StateParked)
		if len(evs) != got.Events {
			t.Fatalf("stream saw %d events, parked run buffered %d", len(evs), got.Events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not close on shutdown")
	}

	iresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/inject", map[string]any{"injection": "emc-fail@t=200:emc=1"})
	defer iresp.Body.Close()
	if iresp.StatusCode != http.StatusConflict {
		t.Fatalf("inject into parked run: status %d, want 409", iresp.StatusCode)
	}
}

// TestCheckpointRestore shuts a server down while a run is holding and
// checks a fresh server restores the run FROM ITS SNAPSHOT — still
// holding at the same point, with the live injection and the event
// sequence intact — and that releasing it reproduces the identical
// report without re-simulating the elapsed horizon.
func TestCheckpointRestore(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "checkpoint.json")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	s1, err := New(Config{StatePath: statePath, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp := postJSON(t, ts1.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{100}})
	snap := decodeSnapshot(t, resp)
	waitState(t, ts1.URL, snap.ID, StateHolding)
	iresp := postJSON(t, ts1.URL+"/runs/"+snap.ID+"/inject", map[string]any{"injection": "emc-fail@t=200:emc=1"})
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d", iresp.StatusCode)
	}
	iresp.Body.Close()
	preShutdown := streamEventsNow(t, ts1.URL+"/runs/"+snap.ID+"/events")
	ts1.Close()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// The reference: the run's batch config executed directly.
	want, err := pond.RunFleet(context.Background(), mustBatchConfig(t, statePath, snap.ID))
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StatePath: statePath, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		if err := s2.Shutdown(); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()

	// The hold must survive the restart: before the fix, restore dropped
	// the hold points and the run silently sprinted to completion.
	restored := waitState(t, ts2.URL, snap.ID, StateHolding)
	if restored.Progress.NowSec != 100 {
		t.Fatalf("restored run is holding at t=%g, want the checkpointed hold at t=100", restored.Progress.NowSec)
	}
	if got := len(restored.Config.Injections); got != 1 {
		t.Fatalf("restored config lost the live injection: %d injections", got)
	}

	rresp := postJSON(t, ts2.URL+"/runs/"+snap.ID+"/resume", struct{}{})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d", rresp.StatusCode)
	}
	rresp.Body.Close()
	done := waitState(t, ts2.URL, snap.ID, StateDone)
	if done.Report.LogSHA256 != want.LogSHA256 {
		t.Fatalf("restored run sha %s != batch sha %s", done.Report.LogSHA256, want.LogSHA256)
	}

	// The event sequence is continuous across the restart: the full
	// stream re-served by the new process extends the pre-shutdown one,
	// and reassembling it reproduces the batch hash.
	events := streamEvents(t, ts2.URL+"/runs/"+snap.ID+"/events")
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d after restore", i, e.Seq)
		}
	}
	for i, e := range preShutdown {
		if events[i] != e {
			t.Fatalf("restored stream rewrote event %d: %+v != %+v", i, events[i], e)
		}
	}
	log := reassemble(events, done.Config.Cluster.Cells)
	if got := pond.EventLogSHA256(log, done.Config.Cluster.Cells); got != want.LogSHA256 {
		t.Fatalf("restored stream sha %s != batch sha %s", got, want.LogSHA256)
	}
}

// streamEventsNow fetches the currently buffered events without
// following the run: it reads ?from=0 and cuts the connection once the
// buffered suffix stalls.
func streamEventsNow(t *testing.T, url string) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	return events
}

// TestCheckpointTerminalRunsSkipResimulation finishes a run, restarts
// the daemon, and checks the run comes back done — report, error state,
// and replay buffer intact — without any live simulation attached.
func TestCheckpointTerminalRunsSkipResimulation(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "checkpoint.json")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	s1, err := New(Config{StatePath: statePath, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp := postJSON(t, ts1.URL+"/runs", map[string]any{"opts": tinyOpts()})
	snap := decodeSnapshot(t, resp)
	done := waitState(t, ts1.URL, snap.ID, StateDone)
	ts1.Close()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StatePath: statePath, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		if err := s2.Shutdown(); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()

	// Immediately done — no waiting, nothing to re-simulate.
	r, ok := s2.run(snap.ID)
	if !ok {
		t.Fatalf("run %s missing after restore", snap.ID)
	}
	if r.fr != nil {
		t.Fatal("terminal restored run carries a live simulation")
	}
	got := decodeSnapshot(t, mustGet(t, ts2.URL+"/runs/"+snap.ID))
	if got.State != StateDone {
		t.Fatalf("restored terminal run state %s, want done", got.State)
	}
	if got.Report == nil || got.Report.LogSHA256 != done.Report.LogSHA256 {
		t.Fatalf("restored terminal run report: %+v, want sha %s", got.Report, done.Report.LogSHA256)
	}
	if got.Events != done.Events {
		t.Fatalf("restored terminal run buffers %d events, want %d", got.Events, done.Events)
	}
	if got.Progress != done.Progress {
		t.Fatalf("restored terminal run progress %+v, want %+v", got.Progress, done.Progress)
	}
	events := streamEvents(t, ts2.URL+"/runs/"+snap.ID+"/events")
	if len(events) != done.Events {
		t.Fatalf("restored terminal run replays %d events, want %d", len(events), done.Events)
	}
}

// TestFinishedRunReleasesSimulator pins that a run finished live lets go
// of its simulator, as a restored terminal run never had one, and still
// serves its normalized config, its final progress and its report.
func TestFinishedRunReleasesSimulator(t *testing.T) {
	s, ts := newTestServer(t)
	snap := decodeSnapshot(t, postJSON(t, ts.URL+"/runs", map[string]any{"opts": tinyOpts(), "hold_at_sec": []float64{100}}))
	waitState(t, ts.URL, snap.ID, StateHolding)
	iresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/inject", map[string]any{"injection": "emc-fail@t=200:emc=1"})
	iresp.Body.Close()
	rresp := postJSON(t, ts.URL+"/runs/"+snap.ID+"/resume", struct{}{})
	rresp.Body.Close()
	if iresp.StatusCode != http.StatusOK || rresp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d, resume status %d", iresp.StatusCode, rresp.StatusCode)
	}
	done := waitState(t, ts.URL, snap.ID, StateDone)
	r, _ := s.run(snap.ID)
	r.mu.Lock()
	held := r.fr != nil
	r.mu.Unlock()
	if held {
		t.Fatal("finished run still holds its simulator")
	}

	if done.Config.Engine.Seed != 1 || done.Config.Model.Scope != "cell" || len(done.Config.Injections) != 1 {
		t.Fatalf("served config is not the normalized one with the live injection: %+v", done.Config)
	}
	want, err := pond.RunFleet(context.Background(), done.Config)
	if err != nil {
		t.Fatal(err)
	}
	if done.Report == nil || done.Report.LogSHA256 != want.LogSHA256 {
		t.Fatalf("served report %+v, want sha %s", done.Report, want.LogSHA256)
	}
	p := done.Progress
	if !p.Done || p.NowSec != want.Options.Cluster.DurationSec || p.Injections != 1 ||
		p.Arrivals != want.Arrivals || p.Placed != want.Placed || p.Departed != want.Departed {
		t.Fatalf("served progress %+v does not match the finished run", p)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCheckpointRefusesOtherVersions hand-writes state files the daemon
// must not guess at — an unversioned (version-1, config-only) file, a
// future version, and a current-version file whose mid-flight run lost
// its simulator snapshot — and checks serve.New refuses each with an
// error naming what it found.
func TestCheckpointRefusesOtherVersions(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts, err := json.Marshal(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]any{"id": "r1", "opts": json.RawMessage(opts)}
	cases := []struct {
		name string
		file map[string]any
		want string
	}{
		{"unversioned", map[string]any{"next_id": 1, "runs": []any{run}}, "unversioned (version 1)"},
		{"future", map[string]any{"version": 3, "next_id": 1, "runs": []any{run}}, "version 3"},
		{"no-snapshot", map[string]any{"version": checkpointVersion, "next_id": 1,
			"runs": []any{map[string]any{"id": "r1", "opts": json.RawMessage(opts), "state": StateRunning}}},
			"no simulator snapshot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			statePath := filepath.Join(t.TempDir(), "checkpoint.json")
			data, err := json.Marshal(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(statePath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{StatePath: statePath, Log: logger})
			if err == nil {
				s.Shutdown()
				t.Fatalf("state file restored; want an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStartRejectsBadArrivals posts arrival configurations the grouped
// options cannot run — an unknown process, negative or overflowing
// rates, a negative lifetime — and expects a 400 for each, including at
// workers > 1 where an unchecked rate used to panic on an engine
// goroutine. The daemon must still answer /healthz afterwards.
func TestStartRejectsBadArrivals(t *testing.T) {
	_, ts := newTestServer(t)
	bodies := []string{
		`{"opts": {"arrival": {"process": "bogus"}}}`,
		`{"opts": {"arrival": {"rate_per_sec": -1}}}`,
		`{"opts": {"arrival": {"mean_lifetime_sec": -1}}}`,
		`{"opts": {"arrival": {"rate_per_sec": 1e300}}}`,
		`{"opts": {"arrival": {"rate_per_sec": 1e300}, "engine": {"workers": 4}}}`,
	}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Error == "" {
			t.Fatalf("%s: status %d error %q (decode %v), want 400 with an error", body, resp.StatusCode, e.Error, derr)
		}
	}
	resp := mustGet(t, ts.URL+"/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d after the rejected bodies", resp.StatusCode)
	}
}

// mustBatchConfig reads a run's checkpointed options back out of the
// state file.
func mustBatchConfig(t *testing.T, statePath, id string) pond.FleetOpts {
	t.Helper()
	var ck checkpointFile
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(ck.Runs))
	for _, r := range ck.Runs {
		ids = append(ids, r.ID)
		if r.ID == id {
			return r.Opts
		}
	}
	sort.Strings(ids)
	t.Fatalf("run %s not in checkpoint (have %v)", id, ids)
	return pond.FleetOpts{}
}
