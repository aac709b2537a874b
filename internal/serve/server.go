package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pond"
	"pond/internal/fsutil"
	"pond/internal/obs"
)

// Config configures a Server.
type Config struct {
	// StatePath is the checkpoint file Shutdown writes and New restores
	// from; empty disables checkpointing.
	StatePath string
	// SliceSec bounds how much simulated time a run advances per lock
	// hold; 0 derives a per-run slice (1/64 of the horizon) so
	// injections land promptly without slicing tiny runs to dust.
	SliceSec float64
	// Log receives the daemon's structured logs; nil discards them.
	Log *slog.Logger
	// RetainDone caps how many terminal (done or failed) runs the
	// registry keeps: when exceeded, the oldest-finished are evicted.
	// 0 keeps every run. Mid-flight and parked runs are never evicted.
	RetainDone int
	// RetainAge evicts terminal runs whose finish is older than this;
	// 0 disables age-based eviction. Checked when runs finish and start,
	// not on a timer.
	RetainAge time.Duration
}

// Server owns the run registry and implements the pondserve HTTP API:
//
//	POST /runs              start a run (body: {"opts": FleetOpts, "hold_at_sec": [...]})
//	GET  /runs              list runs
//	GET  /runs/{id}         inspect one run (progress, config, report when done)
//	POST /runs/{id}/inject  schedule an injection at the next safe point
//	POST /runs/{id}/resume  release a holding run
//	GET  /runs/{id}/events  stream the event log as NDJSON (?from=seq resumes)
//	GET  /healthz           liveness probe
type Server struct {
	cfg Config
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	obs *obs.Registry
	met *serverMetrics

	mu     sync.Mutex
	runs   map[string]*Run
	nextID int
}

// New builds a Server, restoring any runs checkpointed at
// cfg.StatePath: mid-flight runs resume from their simulator snapshots,
// which the determinism contract guarantees continue the original event
// log byte for byte, and terminal runs are served from their persisted
// reports. A state file in any format but the current version is an
// error.
func New(cfg Config) (*Server, error) {
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, log: cfg.Log, ctx: ctx, cancel: cancel, runs: make(map[string]*Run)}
	s.initMetrics()
	if cfg.StatePath != "" {
		if err := s.restore(cfg.StatePath); err != nil {
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// Handler returns the daemon's routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /runs", s.handleStart)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("POST /runs/{id}/inject", s.handleInject)
	mux.HandleFunc("POST /runs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/metrics", s.handleRunMetrics)
	mux.Handle("GET /metrics", s.MetricsHandler())
	return mux
}

// Shutdown parks every run and writes the checkpoint file — the
// in-process equivalent of Park followed by Checkpoint. The HTTP
// listener is the caller's to close.
func (s *Server) Shutdown() error {
	s.Park()
	return s.Checkpoint()
}

// Park stops every run driver and waits for the runs to park at their
// current safe points. Parking is terminal: attached event streams
// close and further injections refuse, so an http.Server drains quickly
// afterwards. The daemon calls Park before http.Server.Shutdown and
// Checkpoint after it, once no handler can race the state file.
func (s *Server) Park() {
	s.cancel()
	s.wg.Wait()
}

// Checkpoint writes the parked registry to the configured state file;
// with checkpointing disabled it is a no-op.
func (s *Server) Checkpoint() error {
	if s.cfg.StatePath == "" {
		return nil
	}
	return s.checkpoint(s.cfg.StatePath)
}

// startRun registers and launches a run. holds are sorted ascending so
// the driver consumes them in time order; a hold past the normalized
// horizon would never be reached, so it is refused up front.
func (s *Server) startRun(opts pond.FleetOpts, holds []float64) (*Run, error) {
	fr, err := pond.StartFleet(s.ctx, opts)
	if err != nil {
		return nil, err
	}
	horizon := fr.Progress().DurationSec
	for _, h := range holds {
		if h > horizon {
			return nil, fmt.Errorf("hold_at_sec %g is past the %gs horizon", h, horizon)
		}
	}
	sort.Float64s(holds)
	// The daemon keeps its own sequenced replay buffer, so the runner's
	// copy of drained log prefixes is redundant — fold them into the
	// incremental report hash and free the bytes.
	fr.SetCompactDrained(true)
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("r%d", s.nextID)
	r := newRun(id, fr, holds)
	s.runs[id] = r
	s.mu.Unlock()

	s.instrument(id, fr)
	s.met.runsStarted.Inc()
	s.evict()
	s.launch(r, horizon)
	s.log.Info("run started", "id", id, "holds", holds)
	return r, nil
}

// launch starts the driver goroutine for a registered run.
func (s *Server) launch(r *Run, horizon float64) {
	slice := s.cfg.SliceSec
	if slice <= 0 {
		slice = horizon / 64
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r.drive(s.ctx, slice)
		snap := r.Snapshot()
		s.log.Info("run finished", "id", r.ID, "state", snap.State, "events", snap.Events)
		s.evict()
	}()
}

func (s *Server) run(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// apiError is the structured error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "runs": n})
}

// startRequest is the POST /runs body: the same grouped FleetOpts the
// Go API and the pondfleet flags take, plus optional hold points where
// the run pauses until POST /runs/{id}/resume — the handle a client
// uses to line up a live injection at an exact simulated time.
type startRequest struct {
	Opts      pond.FleetOpts `json:"opts"`
	HoldAtSec []float64      `json:"hold_at_sec,omitempty"`
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("request body must be a single JSON object")
	}
	return nil
}

func (s *Server) handleStart(w http.ResponseWriter, req *http.Request) {
	var body startRequest
	if err := decodeJSON(req, &body); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := body.Opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid options: %v", err)
		return
	}
	for _, h := range body.HoldAtSec {
		if h < 0 {
			writeError(w, http.StatusBadRequest, "hold_at_sec %g is negative", h)
			return
		}
	}
	r, err := s.startRun(body.Opts, body.HoldAtSec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "start run: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, r.Snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runID(runs[i].ID) < runID(runs[j].ID) })
	out := make([]Snapshot, len(runs))
	for i, r := range runs {
		out[i] = r.Snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func runID(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "r"))
	return n
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, r.Snapshot())
}

// injectRequest is the POST /runs/{id}/inject body: one injection in
// its canonical spec form, e.g. {"injection": "emc-fail@t=500:emc=1"}
// — the same string the -inject flag takes, parsed and validated by
// the same code.
type injectRequest struct {
	Injection pond.Injection `json:"injection"`
}

func (s *Server) handleInject(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	var body injectRequest
	if err := decodeJSON(req, &body); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if body.Injection == (pond.Injection{}) {
		writeError(w, http.StatusBadRequest, `bad request body: missing "injection"`)
		return
	}
	if err := r.Inject(body.Injection); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrCompleted) || errors.Is(err, ErrParked) {
			status = http.StatusConflict
		}
		writeError(w, status, "inject: %v", err)
		return
	}
	s.met.injections.Inc()
	s.log.Info("injection scheduled", "id", r.ID, "injection", body.Injection.String())
	writeJSON(w, http.StatusOK, r.Snapshot())
}

func (s *Server) handleResume(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	if !r.Resume() {
		writeError(w, http.StatusConflict, "run %s is not holding", r.ID)
		return
	}
	writeJSON(w, http.StatusOK, r.Snapshot())
}

// handleEvents streams the run's event log as NDJSON, one Event per
// line, following the run live until it completes. ?from=N resumes
// after a dropped connection: the first line sent has seq >= N.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	from := 0
	if q := req.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q: want a sequence number >= 0", q)
			return
		}
		from = n
	}
	followNDJSON(req.Context(), w, from, r.EventsFrom)
}

// handleRunMetrics serves the run's buffered sim-time series (empty
// unless the run was started with engine.metrics_every_sec > 0). The
// default response is one JSON object with the full series; ?follow=1
// streams rows as NDJSON, following the run live until it completes,
// with ?from=N resuming after the row at buffer position N-1.
func (s *Server) handleRunMetrics(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	q := req.URL.Query()
	from := 0
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q: want a row index >= 0", v)
			return
		}
		from = n
	}
	if q.Get("follow") == "" {
		rows := r.Metrics()
		if from > len(rows) {
			from = len(rows)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"run":  r.ID,
			"rows": rows[from:],
		})
		return
	}
	followNDJSON(req.Context(), w, from, r.MetricsFrom)
}

// sequenced is a streamed entry that knows its buffer position.
type sequenced interface{ position() int }

func (e Event) position() int      { return e.Seq }
func (m MetricsRow) position() int { return m.Seq }

// followNDJSON streams a run's buffered entries as NDJSON, one object
// per line and a flush per batch, following the run live until next
// reports that no more will arrive: next blocks for the entries at
// positions >= from. It stops early if the client goes away.
func followNDJSON[T sequenced](ctx context.Context, w http.ResponseWriter, from int, next func(context.Context, int) []T) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for {
		batch := next(ctx, from)
		if len(batch) == 0 {
			return
		}
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		from = batch[len(batch)-1].position() + 1
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// evict applies the retention policy: with RetainDone set, at most that
// many terminal (done or failed) runs survive, oldest finish evicted
// first; with RetainAge set, terminal runs older than the age go
// regardless of count. Mid-flight, holding, and parked runs are never
// touched — parked runs carry resume state the next process needs.
// Called when a run starts and when one finishes; never on a timer.
func (s *Server) evict() {
	if s.cfg.RetainDone <= 0 && s.cfg.RetainAge <= 0 {
		return
	}
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()

	type done struct {
		r  *Run
		at time.Time
	}
	var terminal []done
	for _, r := range runs {
		r.mu.Lock()
		if (r.state == StateDone || r.state == StateFailed) && !r.finishedAt.IsZero() {
			terminal = append(terminal, done{r: r, at: r.finishedAt})
		}
		r.mu.Unlock()
	}
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].at.Equal(terminal[j].at) {
			return terminal[i].at.Before(terminal[j].at)
		}
		return runID(terminal[i].r.ID) < runID(terminal[j].r.ID)
	})
	var victims []*Run
	keep := len(terminal)
	if s.cfg.RetainDone > 0 && keep > s.cfg.RetainDone {
		for _, d := range terminal[:keep-s.cfg.RetainDone] {
			victims = append(victims, d.r)
		}
		terminal = terminal[keep-s.cfg.RetainDone:]
	}
	if s.cfg.RetainAge > 0 {
		for _, d := range terminal {
			if time.Since(d.at) > s.cfg.RetainAge {
				victims = append(victims, d.r)
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	s.mu.Lock()
	for _, v := range victims {
		// Terminal states never transition back, so the re-check under
		// s.mu only guards against a concurrent evict already deleting it.
		if _, ok := s.runs[v.ID]; ok {
			delete(s.runs, v.ID)
			s.met.runsEvicted.Inc()
			s.log.Info("run evicted", "id", v.ID, "state", v.state)
		}
	}
	s.mu.Unlock()
}

// checkpointVersion is the state-file format, the only one restore
// reads. Version 2 embeds each run's full simulator snapshot, replay
// buffer, and remaining hold points, so a restart resumes runs from
// their parked safe points. Version-1 files (no version field) carried
// only the batch configuration and are refused.
const checkpointVersion = 2

// checkpointFile is the persisted daemon state.
type checkpointFile struct {
	Version int             `json:"version"`
	NextID  int             `json:"next_id"`
	Runs    []checkpointRun `json:"runs"`
}

// checkpointRun is one run's persisted state: the
// reproduce-from-scratch configuration (scheduled plus live injections,
// already folded together by FleetRun.Config) plus the state needed to
// resume without re-simulation — the pre-park run state, the remaining
// hold points, the sequenced event buffer (so ?from= streams survive
// the restart), and either the simulator snapshot (mid-flight runs) or
// the final report (terminal runs).
type checkpointRun struct {
	ID       string              `json:"id"`
	Opts     pond.FleetOpts      `json:"opts"`
	State    string              `json:"state,omitempty"`
	HoldsAt  []float64           `json:"holds_at,omitempty"`
	Events   []Event             `json:"events,omitempty"`
	Metrics  []pond.MetricsRow   `json:"metrics,omitempty"`
	Snapshot *pond.FleetSnapshot `json:"snapshot,omitempty"`
	Report   *SnapshotReport     `json:"report,omitempty"`
	Error    string              `json:"error,omitempty"`
	Progress *pond.FleetProgress `json:"progress,omitempty"`
}

// checkpointState captures the run for persistence. The run lock keeps
// a straggling inject handler from tearing the persisted state; parked
// runs record the state the park interrupted, so a run parked while
// holding resumes holding at the same point.
func (r *Run) checkpointState() (checkpointRun, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := checkpointRun{
		ID:      r.ID,
		Opts:    r.config,
		State:   r.state,
		HoldsAt: append([]float64(nil), r.holds...),
		Events:  append([]Event(nil), r.events...),
		Metrics: append([]pond.MetricsRow(nil), r.metrics...),
	}
	if r.state == StateParked && r.parkedFrom != "" {
		cr.State = r.parkedFrom
	}
	switch cr.State {
	case StateDone, StateFailed:
		cr.Report = r.report
		if r.err != nil {
			cr.Error = r.err.Error()
		}
		p := r.progress
		cr.Progress = &p
	default:
		if r.fr == nil {
			return cr, fmt.Errorf("run %s: %s with no live simulation", r.ID, cr.State)
		}
		snap, err := r.fr.Snapshot()
		if err != nil {
			return cr, fmt.Errorf("run %s: snapshot: %w", r.ID, err)
		}
		cr.Snapshot = snap
	}
	return cr, nil
}

// checkpoint writes the parked registry: every run's configuration plus
// its resume state — simulator snapshots for mid-flight runs, final
// reports for terminal ones.
func (s *Server) checkpoint(path string) error {
	t0 := time.Now()
	s.mu.Lock()
	ck := checkpointFile{Version: checkpointVersion, NextID: s.nextID}
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runID(runs[i].ID) < runID(runs[j].ID) })
	for _, r := range runs {
		cr, err := r.checkpointState()
		if err != nil {
			return err
		}
		ck.Runs = append(ck.Runs, cr)
	}
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	secs := time.Since(t0).Seconds()
	s.met.checkpoints.Inc()
	s.met.checkpointBytes.Set(float64(len(data) + 1))
	s.met.checkpointSeconds.Observe(secs)
	s.log.Info("checkpoint written", "path", path, "runs", len(ck.Runs), "bytes", len(data)+1, "seconds", secs)
	return nil
}

// restore rebuilds every checkpointed run under its original ID. A
// missing checkpoint file is a fresh start, not an error. Mid-flight
// runs resume from their snapshot's parked safe point in O(state) time;
// terminal runs are rebuilt from their persisted report without any
// simulation.
func (s *Server) restore(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		return nil
	}
	if err != nil {
		return err
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		found := fmt.Sprintf("version %d", ck.Version)
		if ck.Version == 0 {
			found = "unversioned (version 1)"
		}
		return fmt.Errorf("checkpoint %s is %s; this build reads only version %d", path, found, checkpointVersion)
	}
	s.nextID = ck.NextID
	for _, cr := range ck.Runs {
		if err := s.restoreRun(cr); err != nil {
			return fmt.Errorf("restore run %s: %w", cr.ID, err)
		}
	}
	return nil
}

// restoreRun rebuilds one checkpointed run.
func (s *Server) restoreRun(cr checkpointRun) error {
	if cr.State == StateDone || cr.State == StateFailed {
		r := &Run{
			ID:      cr.ID,
			state:   cr.State,
			config:  cr.Opts,
			events:  cr.Events,
			metrics: cr.Metrics,
			report:  cr.Report,
			// The original finish time is not persisted; ageing restored
			// terminal runs from the restore instead of evicting them
			// immediately errs on the side of keeping data.
			stateSince: time.Now(),
			finishedAt: time.Now(),
		}
		if cr.Progress != nil {
			r.progress = *cr.Progress
		}
		if cr.Error != "" {
			r.err = errors.New(cr.Error)
		}
		r.cond = sync.NewCond(&r.mu)
		s.runs[cr.ID] = r
		s.met.runsRestored.Inc()
		s.log.Info("run restored", "id", cr.ID, "state", cr.State)
		return nil
	}
	if cr.Snapshot == nil {
		return fmt.Errorf("run in state %q has no simulator snapshot", cr.State)
	}
	fr, err := pond.RestoreFleet(s.ctx, cr.Snapshot)
	if err != nil {
		return err
	}
	fr.SetCompactDrained(true)
	r := newRun(cr.ID, fr, append([]float64(nil), cr.HoldsAt...))
	r.events = cr.Events
	r.metrics = cr.Metrics
	if cr.State == StateHolding {
		r.state = StateHolding
	}
	s.runs[cr.ID] = r
	s.instrument(cr.ID, fr)
	s.met.runsRestored.Inc()
	// Read the resume point before launch: once the driver goroutine is
	// running, the simulator belongs to it.
	at := fr.Now()
	s.launch(r, fr.Progress().DurationSec)
	s.log.Info("run restored", "id", cr.ID, "state", r.state, "t", at)
	return nil
}
