// Command pondserve is the live control-plane daemon: it serves fleet
// runs over HTTP, letting clients start simulations, watch their event
// logs stream, and inject operational scenarios — EMC failures, drains,
// surges, drift, resizes — into a running fleet at deterministic safe
// points.
//
//	pondserve -addr :8080 -state /var/lib/pond/checkpoint.json
//
//	curl -X POST localhost:8080/runs -d '{"opts":{"cluster":{"cells":2,"duration_sec":600}}}'
//	curl -X POST localhost:8080/runs/r1/inject -d '{"injection":"emc-fail@t=400:emc=1"}'
//	curl localhost:8080/runs/r1/events
//	curl localhost:8080/metrics
//
// The request bodies are the same grouped configuration pond.FleetOpts
// defines and pondfleet's flags map onto; injections use the same spec
// strings as -inject, with one parser and one validation path behind
// all three. A served run's event log is byte-identical to the
// equivalent batch pondfleet run with the live injections folded into
// -inject — the determinism contract extends across the process
// boundary.
//
// Every flag can also come from the environment as PONDSERVE_<FLAG>
// (dashes become underscores: PONDSERVE_ADDR, PONDSERVE_STATE or its
// alias PONDSERVE_CHECKPOINT, PONDSERVE_ADMIN_ADDR, ...). Flags given
// on the command line always win over the environment.
//
// GET /metrics serves Prometheus-format process and per-run gauges.
// -admin-addr opens a second listener carrying /metrics plus the
// net/http/pprof profiling handlers; the profiling surface stays off
// the API listener so exposing the API never exposes pprof.
//
// On SIGTERM or SIGINT the daemon parks every run at a safe point
// (which closes attached event streams), drains in-flight requests,
// and checkpoints each run's configuration plus its simulator snapshot
// (or, once finished, its report) to -state; a fresh daemon pointed at
// the same file resumes them from their parked safe points to the same
// byte-identical reports, and refuses a state file of any other
// version. -check probes a running daemon's /healthz and exits 0/1 —
// the Dockerfile HEALTHCHECK hook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pond/internal/cliutil"
	"pond/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		adminAddr  = flag.String("admin-addr", "", "admin listen address serving /metrics and net/http/pprof (empty = no admin listener, no pprof)")
		state      = flag.String("state", "", "checkpoint file written on shutdown and restored on start (empty = stateless)")
		retainDone = flag.Int("retain-done", 0, "keep at most this many terminal runs, evicting oldest-finished first (0 = keep all)")
		retainAge  = flag.Duration("retain-age", 0, "evict terminal runs finished longer ago than this, e.g. 24h (0 = keep forever)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (debug includes per-slice phase spans)")
		check      = flag.Bool("check", false, "probe /healthz of a daemon on -addr and exit 0 (healthy) or 1")
	)
	flag.Parse()
	if err := cliutil.ApplyEnv(flag.CommandLine, "PONDSERVE", map[string]string{"CHECKPOINT": "state"}); err != nil {
		fmt.Fprintf(os.Stderr, "pondserve: %v\n", err)
		os.Exit(2)
	}

	if *check {
		os.Exit(probe(*addr))
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "pondserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	log := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv, err := serve.New(serve.Config{
		StatePath:  *state,
		Log:        log,
		RetainDone: *retainDone,
		RetainAge:  *retainAge,
	})
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() {
		log.Info("listening", "addr", *addr, "state", *state)
		errc <- httpSrv.ListenAndServe()
	}()
	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{Addr: *adminAddr, Handler: adminHandler(srv)}
		go func() {
			log.Info("admin listening", "addr", *adminAddr)
			errc <- adminSrv.ListenAndServe()
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
	}

	// Park first: runs reach a terminal state and broadcast, so attached
	// /events followers EOF and the HTTP drain below finishes promptly
	// instead of burning its timeout waiting on live streams. The
	// checkpoint is written last, once no handler can still be mutating a
	// run's config.
	srv.Park()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("http shutdown", "err", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Error("admin shutdown", "err", err)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		log.Error("checkpoint failed", "err", err)
		os.Exit(1)
	}
	log.Info("stopped")
}

// adminHandler is the opt-in operator surface: the same Prometheus
// exposition as the API's /metrics, plus the pprof profile handlers.
// pprof is registered here explicitly rather than via the package's
// DefaultServeMux side effect, so nothing leaks onto the API listener.
func adminHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", srv.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// probe GETs /healthz on addr, printing the verdict for container
// logs. A bare ":8080" addr probes localhost.
func probe(addr string) int {
	if strings.HasPrefix(addr, ":") {
		addr = "localhost" + addr
	}
	client := &http.Client{Timeout: 3 * time.Second}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		fmt.Fprintf(os.Stderr, "unhealthy: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "unhealthy: status %d\n", resp.StatusCode)
		return 1
	}
	fmt.Println("healthy")
	return 0
}
