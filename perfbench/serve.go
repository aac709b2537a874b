package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pond"
	"pond/internal/serve"
)

const (
	// serveRetain is the daemon's RetainDone: the terminal runs it keeps,
	// which bounds the state file whatever the machine's speed.
	serveRetain = 8
	// serveMinRuns is how many runs every invocation completes; the
	// simulated metrics and work counts come from exactly these runs.
	serveMinRuns = 32
	// serveRestartEvery is the closed loop's restart cadence: a timed
	// daemon restart follows the run that fills the retention quota and
	// every serveRestartEvery-th run after it, so the restart samples
	// spread over the whole window.
	serveRestartEvery = 16
	// serveSetupEvery is the closed loop's set-up cadence: an untraced
	// run times a daemon set-up before every serveSetupEvery-th run.
	serveSetupEvery = 4
	// replayEvery makes every n-th traced run replay through FleetRun
	// directly, where drains, snapshot and restore can be timed.
	replayEvery = 16
	// pollEvery is the client's wait between GETs while a run heads for
	// its hold point.
	pollEvery = time.Millisecond
	// heldIndex is the generated index of the run held across every
	// restart, apart from the closed loop's indices.
	heldIndex = 1 << 20
)

// daemon is an in-process pondserve: the serve.Server behind a real
// HTTP listener on localhost.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(state string) (*daemon, error) {
	srv, err := serve.New(serve.Config{StatePath: state, RetainDone: serveRetain,
		Log: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop parks every run, closes the listener, then writes the state
// file, in the order cmd/pondserve shuts down.
func (d *daemon) stop() error {
	d.srv.Park()
	d.ts.Close()
	return d.srv.Checkpoint()
}

// client is the closed-loop HTTP client: one control connection plus
// one NDJSON follower connection.
type client struct {
	b    *bench
	http *http.Client
	base string
	// errors counts transport failures and unexpected statuses.
	errors int
}

func newClient(b *bench) *client {
	return &client{b: b, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}}
}

// call sends one control request, traced as a span named layer under
// parent, and decodes the body into out when the status is want. It
// counts as one operation.
func (c *client) call(method, path string, body any, want int, out any, layer, run string, parent int) error {
	sp := c.b.tr.begin(layer, run, parent)
	err := c.roundTrip(method, path, body, want, out)
	c.b.tr.end(sp, 0)
	if err != nil {
		c.errors++
	}
	return c.b.op(err)
}

func (c *client) roundTrip(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// runView is the part of GET /runs/{id} the client reads. Report stays
// raw so the restored copy can be compared byte for byte.
type runView struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	Error    string             `json:"error"`
	Progress pond.FleetProgress `json:"progress"`
	Config   pond.FleetOpts     `json:"config"`
	Report   json.RawMessage    `json:"report"`
}

type reportView struct {
	Summary   string `json:"summary"`
	LogSHA256 string `json:"log_sha256"`
}

type startBody struct {
	Opts      pond.FleetOpts `json:"opts"`
	HoldAtSec []float64      `json:"hold_at_sec"`
}

// follower reads a run's NDJSON event stream on the second connection
// until the run ends, reassembling the event log.
type follower struct {
	log   strings.Builder
	lines int
	bytes int64
	err   error
	done  chan struct{}
}

// follow attaches a follower from seq 0. The stream ends when the run is
// terminal; cancelling ctx (or the client timeout) ends it early.
func (c *client) follow(ctx context.Context, id, run string, parent int) *follower {
	f := &follower{done: make(chan struct{})}
	url := c.base + "/runs/" + id + "/events"
	go func() {
		defer close(f.done)
		sp := c.b.tr.begin("serve.events", run, parent)
		defer func() { c.b.tr.end(sp, int64(f.lines)) }()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			f.err = err
			return
		}
		resp, err := c.http.Do(req)
		if err != nil {
			f.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var e serve.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				f.err = err
				return
			}
			if e.Seq != f.lines {
				f.err = fmt.Errorf("event stream of %s: seq %d, want %d", id, e.Seq, f.lines)
				return
			}
			f.log.WriteString(e.Line)
			f.log.WriteByte('\n')
			f.lines++
			f.bytes += int64(len(sc.Bytes()) + 1)
		}
		f.err = sc.Err()
	}()
	return f
}

// servedRun is one completed closed-loop run.
type servedRun struct {
	id     string
	secs   float64
	view   runView
	report reportView
	// events, logBytes and streamBytes measure the NDJSON stream: lines,
	// reassembled log bytes, and bytes on the wire.
	events      int
	logBytes    int
	streamBytes int64
}

// waitState polls GET /runs/{id} until the run reaches want, fails, or
// 60 s pass.
func (c *client) waitState(id, want, run string, parent int) (runView, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v runView
		if err := c.call(http.MethodGet, "/runs/"+id, nil, http.StatusOK, &v, "serve.get_run", run, parent); err != nil {
			return v, err
		}
		switch {
		case v.State == want:
			return v, nil
		case v.State == serve.StateFailed || v.State == serve.StateDone || v.State == serve.StateParked:
			return v, fmt.Errorf("run %s is %s, want %s %s", id, v.State, want, v.Error)
		case time.Now().After(deadline):
			return v, fmt.Errorf("run %s still %s after 60s, want %s", id, v.State, want)
		}
		time.Sleep(pollEvery)
	}
}

// serveOne drives one run through the closed loop: POST /runs with a
// hold, attach the follower, wait for holding, inject live, resume, wait
// for the stream to end, GET the report. The timed part ends when the
// report is in hand; the stream hash check and a /metrics scrape follow.
func (c *client) serveOne(i int, opts pond.FleetOpts, hold float64, inj string) (*servedRun, error) {
	run := fmt.Sprintf("run%d", i)
	root := c.b.tr.begin("trace.run", run, -1)
	t0 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started runView
	if err := c.call(http.MethodPost, "/runs", startBody{opts, []float64{hold}}, http.StatusCreated, &started, "serve.post_runs", run, root); err != nil {
		c.b.tr.end(root, 0)
		return nil, err
	}
	id := started.ID
	f := c.follow(ctx, id, run, root)
	fail := func(err error) (*servedRun, error) {
		cancel()
		<-f.done
		c.b.tr.end(root, 0)
		return nil, err
	}
	if _, err := c.waitState(id, serve.StateHolding, run, root); err != nil {
		return fail(err)
	}
	if err := c.call(http.MethodPost, "/runs/"+id+"/inject", map[string]string{"injection": inj}, http.StatusOK, nil, "serve.inject", run, root); err != nil {
		return fail(err)
	}
	if err := c.call(http.MethodPost, "/runs/"+id+"/resume", struct{}{}, http.StatusOK, nil, "serve.resume", run, root); err != nil {
		return fail(err)
	}
	<-f.done
	sr := &servedRun{id: id, events: f.lines, logBytes: f.log.Len(), streamBytes: f.bytes}
	err := c.call(http.MethodGet, "/runs/"+id, nil, http.StatusOK, &sr.view, "serve.get_run", run, root)
	sr.secs = time.Since(t0).Seconds()
	c.b.tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	if c.b.op(f.err) != nil {
		return nil, f.err
	}
	if !c.b.check(sr.view.State == serve.StateDone && sr.view.Report != nil, "run %s ended %s %s", id, sr.view.State, sr.view.Error) {
		return nil, errors.New("run not done")
	}
	if c.b.op(json.Unmarshal(sr.view.Report, &sr.report)) != nil {
		return nil, errors.New("bad report")
	}
	c.b.check(pond.EventLogSHA256(f.log.String(), sr.view.Config.Cluster.Cells) == sr.report.LogSHA256,
		"run %s: reassembled NDJSON stream does not hash to the served log_sha256 %s", id, sr.report.LogSHA256)
	c.scrape(run)
	return sr, nil
}

// scrape reads the daemon's Prometheus /metrics once, as an operator's
// scraper would between runs.
func (c *client) scrape(run string) {
	sp := c.b.tr.begin("trace.scrape", run, -1)
	sub := c.b.tr.begin("serve.metrics_scrape", run, sp)
	resp, err := c.http.Get(c.base + "/metrics")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
		}
	}
	c.b.tr.end(sub, 0)
	c.b.tr.end(sp, 0)
	if err != nil {
		c.errors++
	}
	c.b.op(err)
}

// runServe drives the serve workload: timed daemon set-ups, then
// closed-loop runs until the window closes (at least serveMinRuns) with
// a timed daemon restart every serveRestartEvery runs and one run held
// across all of them, and batch RunFleet cross-checks of the first run
// and the held one.
func runServe(b *bench) error {
	c := newClient(b)
	state := filepath.Join(b.out, "serve-state.json")
	if err := os.Remove(state); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	d, err := startDaemon(state)
	if err != nil {
		return err
	}
	c.base = d.ts.URL
	held, heldInj, err := c.holdRun()
	if err != nil {
		d.stop()
		return err
	}

	// In the traced run every other run goes untraced, so
	// trace.overhead_pct compares runs made under the same conditions.
	tr := b.tr
	var fixed, all []*servedRun
	reports := map[string]json.RawMessage{}
	var restarts, sizes []float64
	var untracedVMs, untracedSecs, tracedVMs, tracedSecs float64
	traced, replays, replayWork := 0, 0, 0
	start := time.Now()
	for i := 0; i < serveMinRuns || b.timeLeft(start); i++ {
		if tr == nil && i%serveSetupEvery == 0 {
			b.timeSetup(c.setupOnce, i/serveSetupEvery)
		}
		if i >= serveRetain && (i-serveRetain)%serveRestartEvery == 0 {
			b.tr = tr
			secs, mb, err := c.restart(&d, state, held, len(restarts), reports)
			if err != nil {
				d.stop()
				return err
			}
			if secs > 0 {
				restarts = append(restarts, secs)
				sizes = append(sizes, mb)
			}
		}
		if tr != nil {
			b.tr = nil
			if i%2 == 1 {
				b.tr = tr
			}
		}
		opts, hold, inj := serveRunOpts(b.seed, b.sz, i)
		opts.Engine.Workers = b.workers
		sr, err := c.serveOne(i, opts, hold, inj)
		if err != nil {
			if i < serveMinRuns {
				fixed = append(fixed, nil)
			}
			continue
		}
		reports[sr.id] = sr.view.Report
		all = append(all, sr)
		if i < serveMinRuns {
			fixed = append(fixed, sr)
		}
		if b.tr == nil {
			untracedVMs += float64(sr.view.Progress.Placed)
			untracedSecs += sr.secs
			continue
		}
		tracedVMs += float64(sr.view.Progress.Placed)
		tracedSecs += sr.secs
		if traced%replayEvery == 0 {
			replayWork += b.replay(i, opts, hold, inj, sr.report.LogSHA256)
			replays++
		}
		traced++
	}
	b.tr = tr
	if len(all) == 0 {
		d.stop()
		return errors.New("serve: no run completed")
	}
	b.hashes = append(b.hashes, hashesOf(fixed)...)
	fmt.Fprintf(b.log, "serve: %d runs completed, first log_sha256=%s\n", len(all), all[0].report.LogSHA256)

	// The first run, re-run as a batch RunFleet on the served config
	// (which carries the live injection), must hash the same.
	if first := fixed[0]; first != nil {
		rep, err := pond.RunFleet(b.ctx, first.view.Config)
		if b.op(err) == nil {
			b.check(rep.LogSHA256 == first.report.LogSHA256, "run %s: batch RunFleet on the served config %s != served %s",
				first.id, rep.LogSHA256, first.report.LogSHA256)
		}
	}

	if sr, err := c.finishHeld(held, heldInj, "restart"); err == nil {
		rep, err := pond.RunFleet(b.ctx, sr.view.Config)
		if b.op(err) == nil {
			b.check(rep.LogSHA256 == sr.report.LogSHA256, "run %s held across restarts: batch RunFleet %s != served %s",
				sr.id, rep.LogSHA256, sr.report.LogSHA256)
		}
	}
	if err := d.stop(); err != nil {
		return err
	}
	if len(restarts) == 0 {
		return errors.New("serve: no daemon restart completed")
	}

	var secs []float64
	for _, sr := range all {
		secs = append(secs, sr.secs)
	}
	fmt.Fprintf(b.log, "serve: run_to_report over %d runs; restart samples %.4f s, state file %.2f MB\n", len(secs), restarts, sizes)
	if tr == nil {
		b.set("vms_per_s", untracedVMs/untracedSecs)
		b.set("run_to_report_s.p50", median(secs))
		b.set("run_to_report_s.p90", quantile(secs, 0.9))
		b.set("restart_s", median(restarts))
		b.set("checkpoint_mb", median(sizes))
		b.setServeOutcome(fixed)
		return nil
	}
	b.serveLayers(fixed, replays, replayWork, c.errors, untracedVMs/untracedSecs, tracedVMs/tracedSecs)
	return nil
}

func hashesOf(runs []*servedRun) []string {
	out := make([]string, len(runs))
	for i, sr := range runs {
		if sr != nil {
			out[i] = sr.report.LogSHA256
		}
	}
	return out
}

// setupOnce is one timed daemon set-up: serve.New, the listener, a
// healthy /healthz, and the k-th generated run accepted (POST /runs
// runs StartFleet before answering 201). The set-up daemon is a second
// one; the client points back at the closed loop's daemon afterwards.
func (c *client) setupOnce(k int) error {
	defer func(base string) { c.base = base }(c.base)
	d, err := startDaemon("")
	if err != nil {
		return err
	}
	defer d.stop()
	defer c.http.CloseIdleConnections()
	c.base = d.ts.URL
	if err := c.roundTrip(http.MethodGet, "/healthz", nil, http.StatusOK, nil); err != nil {
		return err
	}
	opts, _, _ := serveRunOpts(c.b.seed, c.b.sz, k)
	opts.Engine.Workers = c.b.workers
	return c.roundTrip(http.MethodPost, "/runs", startBody{opts, []float64{0}}, http.StatusCreated, nil)
}

// holdRun posts the run held across every restart and waits until it
// holds, so each state file carries a live simulator snapshot beside
// the terminal runs. It returns the run's id and the injection it gets
// when it is released.
func (c *client) holdRun() (id, inj string, err error) {
	opts, hold, inj := serveRunOpts(c.b.seed, c.b.sz, heldIndex)
	opts.Engine.Workers = c.b.workers
	var v runView
	if err := c.call(http.MethodPost, "/runs", startBody{opts, []float64{hold}}, http.StatusCreated, &v, "serve.post_runs", "restart", -1); err != nil {
		return "", "", err
	}
	if _, err := c.waitState(v.ID, serve.StateHolding, "restart", -1); err != nil {
		return "", "", err
	}
	return v.ID, inj, nil
}

// restart times the k-th daemon restart: Park, listener close,
// Checkpoint, serve.New from the state file, and the first successful
// GET of the held run. The state is the retention quota of terminal
// runs plus the held run, and which runs those are depends on the run
// index alone, not on the machine's speed. Every restored report must
// match its pre-restart bytes and the held run must come back holding.
// It returns the restart's seconds (0 when the GET failed) and the
// state file's MB; an error means the daemon is gone.
func (c *client) restart(d **daemon, state, held string, k int, reports map[string]json.RawMessage) (secs, mb float64, err error) {
	b := c.b
	run := fmt.Sprintf("restart%d", k)
	runtime.GC()
	t0 := time.Now()
	root := b.tr.begin("trace.restart", run, -1)
	fail := func(err error) (float64, float64, error) {
		b.tr.end(root, 0)
		return 0, 0, err
	}
	(*d).srv.Park()
	(*d).ts.Close()
	c.http.CloseIdleConnections()
	sp := b.tr.begin("serve.checkpoint", run, root)
	err = (*d).srv.Checkpoint()
	b.tr.end(sp, 0)
	if b.op(err) != nil {
		return fail(err)
	}
	fi, err := os.Stat(state)
	if b.op(err) != nil {
		return fail(err)
	}
	sp = b.tr.begin("serve.restore", run, root)
	nd, err := startDaemon(state)
	b.tr.end(sp, 0)
	if b.op(err) != nil {
		return fail(err)
	}
	*d = nd
	c.base = nd.ts.URL
	var back runView
	if c.call(http.MethodGet, "/runs/"+held, nil, http.StatusOK, &back, "serve.get_run", run, root) != nil {
		return fail(nil)
	}
	secs = time.Since(t0).Seconds()
	b.tr.end(root, 0)
	c.checkRestored(reports)
	b.check(back.State == serve.StateHolding, "held run %s restored %s, want holding", held, back.State)
	return secs, float64(fi.Size()) / (1 << 20), nil
}

// checkRestored compares every restored terminal run's report with the
// bytes served before the restart, and checks the daemon kept exactly
// its retention quota of terminal runs.
func (c *client) checkRestored(reports map[string]json.RawMessage) {
	var list struct {
		Runs []runView `json:"runs"`
	}
	if c.call(http.MethodGet, "/runs", nil, http.StatusOK, &list, "serve.list_runs", "", -1) != nil {
		return
	}
	terminal := 0
	for _, v := range list.Runs {
		if v.Report == nil {
			continue
		}
		terminal++
		c.b.check(bytes.Equal(v.Report, reports[v.ID]), "restored run %s: report differs from its pre-restart copy", v.ID)
	}
	c.b.check(terminal == min(serveRetain, len(reports)), "restored %d terminal runs, want %d", terminal, min(serveRetain, len(reports)))
}

// finishHeld releases a run that was held across a restart and checks
// its full stream — replayed from the persisted buffer, then live —
// against its report.
func (c *client) finishHeld(id, inj, run string) (*servedRun, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := c.follow(ctx, id, run, -1)
	err := c.call(http.MethodPost, "/runs/"+id+"/inject", map[string]string{"injection": inj}, http.StatusOK, nil, "serve.inject", run, -1)
	if err == nil {
		err = c.call(http.MethodPost, "/runs/"+id+"/resume", struct{}{}, http.StatusOK, nil, "serve.resume", run, -1)
	}
	if err != nil {
		cancel()
		<-f.done
		return nil, err
	}
	<-f.done
	sr := &servedRun{id: id}
	if err := c.call(http.MethodGet, "/runs/"+id, nil, http.StatusOK, &sr.view, "serve.get_run", run, -1); err != nil {
		return nil, err
	}
	if c.b.op(f.err) != nil || c.b.op(json.Unmarshal(sr.view.Report, &sr.report)) != nil {
		return nil, errors.New("held run: no report")
	}
	c.b.check(pond.EventLogSHA256(f.log.String(), sr.view.Config.Cluster.Cells) == sr.report.LogSHA256,
		"run %s held across restart: stream does not hash to the served log_sha256", id)
	return sr, nil
}

// replay re-runs a served run directly through FleetRun the way the
// daemon drives it — drained-prefix compaction on, 1/64-horizon slices
// with a DrainEvents after each — adding a snapshot and restore at the
// hold point before the live injection. Its hash must match the served
// run's. It returns the run's VM arrivals plus departures.
func (b *bench) replay(i int, opts pond.FleetOpts, hold float64, inj, want string) int {
	run := fmt.Sprintf("replay%d", i)
	root := b.tr.begin("trace.replay", run, -1)
	defer b.tr.end(root, 0)
	sp := b.tr.begin("fleet.setup", run, root)
	fr, err := pond.StartFleet(b.ctx, opts)
	b.tr.end(sp, 0)
	if b.op(err) != nil {
		return 0
	}
	var log strings.Builder
	attach := func(fr *pond.FleetRun) {
		fr.SetCompactDrained(true)
		fr.SetPhaseHook(b.tr.hook(run, root))
	}
	horizon := fr.Progress().DurationSec
	slice := horizon / 64
	advanceTo := func(target float64) error {
		for fr.Now() < target {
			b.tr.markAllocs()
			if err := fr.Advance(b.ctx, min(fr.Now()+slice, target)); err != nil {
				return err
			}
			b.drain(fr, &log, run, root)
		}
		return nil
	}
	attach(fr)
	if b.op(advanceTo(hold)) != nil {
		return 0
	}
	path := filepath.Join(b.out, "serve-replay-snapshot.json")
	fr, _, err = b.checkpointRestore(fr, path, run, root)
	if b.op(err) != nil {
		return 0
	}
	attach(fr)
	in, err := pond.ParseInjection(inj)
	if b.op(err) != nil || b.op(fr.Inject(in)) != nil || b.op(advanceTo(horizon)) != nil {
		return 0
	}
	b.tr.markAllocs()
	rep, err := fr.Finish(b.ctx)
	if b.op(err) != nil {
		return 0
	}
	b.drain(fr, &log, run, root)
	got := pond.EventLogSHA256(log.String(), opts.Cluster.Cells)
	b.check(got == want && rep.LogSHA256 == want, "replay of run %d through FleetRun: stream %s, report %s, served %s",
		i, got, rep.LogSHA256, want)
	return rep.Arrivals + rep.Departed
}

func (b *bench) drain(fr *pond.FleetRun, log *strings.Builder, run string, parent int) {
	sp := b.tr.begin("fleet.drain", run, parent)
	evs := fr.DrainEvents()
	b.tr.end(sp, int64(len(evs)))
	for _, e := range evs {
		log.WriteString(e.Line)
		log.WriteByte('\n')
	}
}

// setServeOutcome reports the simulated outcome of the fixed first
// runs: pool share (the served summary's pool-share, averaged) and QoS
// violations per departed VM.
func (b *bench) setServeOutcome(fixed []*servedRun) {
	var share float64
	var n, qos, departed int
	for _, sr := range fixed {
		if sr == nil {
			continue
		}
		v, err := summaryPercent(sr.report.Summary, "pool-share=")
		if b.op(err) != nil {
			continue
		}
		share += v
		n++
		qos += sr.view.Progress.QoSViolations
		departed += sr.view.Progress.Departed
	}
	if n > 0 {
		share /= float64(n)
	}
	b.set("pool_share_pct", share)
	b.set("qos_violation_pct", pct(float64(qos), float64(departed)))
}

// summaryPercent reads a "key=12.3%" field from a report summary.
func summaryPercent(summary, key string) (float64, error) {
	i := strings.Index(summary, key)
	if i < 0 {
		return 0, fmt.Errorf("summary has no %s field", key)
	}
	rest := summary[i+len(key):]
	end := strings.IndexByte(rest, '%')
	if end < 0 {
		return 0, fmt.Errorf("summary field %s is not a percentage", key)
	}
	return strconv.ParseFloat(rest[:end], 64)
}

// serveLayers reports the serve workload's per-layer metrics: the
// daemon's HTTP endpoints and event streaming from the closed loop, the
// fleet layer's sliced path from the FleetRun replays, and the exact
// work counts of the fixed first runs.
func (b *bench) serveLayers(fixed []*servedRun, replays, replayWork, httpErrors int, untracedRate, tracedRate float64) {
	reps := float64(max(replays, 1))
	setup := b.tr.stats("fleet.setup", "replay")
	b.set("fleet.setup.s", median(setup.durs))
	b.set("fleet.setup.allocs", float64(setup.allocs)/float64(max(setup.count, 1)))
	adv := b.setSpanMetrics("fleet.advance", "replay", max(replays, 1))
	var arrivals, placed, rejected, fallbacks, poolGB, events, logBytes int
	var streamBytes int64
	for _, sr := range fixed {
		if sr == nil {
			continue
		}
		p := sr.view.Progress
		arrivals += p.Arrivals
		placed += p.Placed
		rejected += p.Rejected
		fallbacks += p.Fallbacks
		poolGB += p.PoolGB
		events += sr.events
		logBytes += sr.logBytes
		streamBytes += sr.streamBytes
	}
	work := float64(max(replayWork, 1))
	b.set("fleet.advance.us_per_event", 1e6*adv.secs/work)
	b.set("fleet.advance.allocs_per_event", float64(adv.allocs)/work)
	b.setCounts(arrivals, placed, rejected, events, logBytes)
	b.setCapacity(fallbacks, placed, float64(poolGB)/float64(max(len(fixed), 1)))

	fin := b.tr.stats("fleet.finish", "replay")
	b.set("fleet.finish.s", fin.secs/reps)
	b.set("fleet.finish.allocs", float64(fin.allocs)/reps)
	dr := b.tr.stats("fleet.drain", "replay")
	b.set("fleet.drain.s", dr.secs/reps)
	b.set("fleet.drain.calls", float64(dr.count)/reps)
	b.set("fleet.drain.lines", float64(dr.n)/reps)
	snap := b.tr.stats("fleet.snapshot", "replay")
	b.set("fleet.snapshot.s", snap.secs/reps)
	b.set("fleet.snapshot.bytes", float64(snap.n)/reps)
	b.set("fleet.restore.s", b.tr.stats("fleet.restore", "replay").secs/reps)

	runs := float64(max(len(fixed), 1))
	ev := b.tr.stats("serve.events", "run")
	b.set("serve.events.s", ev.secs/float64(max(ev.count, 1)))
	b.set("serve.events.lines", float64(events)/runs)
	b.set("serve.events.bytes", float64(streamBytes)/runs)
	b.set("serve.checkpoint_s", median(b.tr.stats("serve.checkpoint", "restart").durs))
	b.set("serve.restore_s", median(b.tr.stats("serve.restore", "restart").durs))
	for _, name := range []string{"post_runs", "get_run", "inject", "resume", "metrics_scrape"} {
		b.set("serve."+name+"_ms.p50", 1e3*median(b.tr.stats("serve."+name, "run").durs))
	}
	b.set("serve.http_errors", float64(httpErrors))
	b.set("trace.overhead_pct", 100*(untracedRate/tracedRate-1))
}
