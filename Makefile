GO ?= go

.PHONY: all build vet test test-short test-race lint cover bench bench-gate bench-baseline perfbench-test fleet plan serve docker docker-smoke soak soak-fleet soak-elastic fuzz golden

all: build vet test-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full suite: paper-scale fidelity for every figure (slow; the experiment
# pipelines use every core through the parallel engine).
test: build vet
	$(GO) test ./...

# Fast tier: reduced trace scales, no race detector; the quickest CI
# signal (the race matrix tier covers the detector).
test-short:
	$(GO) test -short ./...

# Race tier: the full suite under the race detector (CI matrix tier).
test-race:
	$(GO) test -race ./...

# Static analysis, pinned to the CI versions (first run downloads them).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.3 ./...

# Short-tier statement coverage, gated at the committed COVERAGE_MIN.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	min=$$(cat COVERAGE_MIN 2>/dev/null); \
	[ -n "$$total" ] || { echo "could not compute total coverage"; exit 1; }; \
	[ -n "$$min" ] || { echo "COVERAGE_MIN missing or empty; the gate has no floor"; exit 1; }; \
	echo "total coverage: $$total% (minimum $$min%)"; \
	awk -v t="$$total" -v m="$$min" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the committed minimum $$min%"; exit 1; }

# Benchmark smoke: every figure benchmark runs exactly once so a broken
# pipeline fails fast without paying full benchmarking time.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# CI benchmark-regression gate: time the deterministic fleet smoke, emit
# BENCH_fleet.json, and fail on >20% regression vs BENCH_baseline.json.
# The bench output is redirected (not piped through tee) so a failing
# benchmark fails the target.
bench-gate:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.txt 2>&1 || (cat bench.txt; false)
	cat bench.txt
	$(GO) run ./cmd/benchgate -bench bench.txt -baseline BENCH_baseline.json -out BENCH_fleet.json

# Refresh the committed benchmark baseline after an intentional change.
bench-baseline:
	$(GO) run ./cmd/benchgate -update

# The end-to-end benchmark (perfbench/) is its own module, so the root
# `go test ./...` never compiles it: vet and test it against the public
# API here, so an API change cannot break it unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# Online fleet simulation quick-look across all three topologies.
fleet:
	$(GO) run ./cmd/pondfleet -topology flat,sharded,sparse -inject emc-fail@t=500

# Offline capacity planner: the DRAM-savings waterfall per topology.
plan:
	$(GO) run ./cmd/pondplan -topology flat,sharded,sparse -target-qos 0.01

# Live control-plane daemon on :8080, checkpointing to ./checkpoint.json
# on SIGTERM (curl walkthrough in README).
serve:
	$(GO) run ./cmd/pondserve -addr :8080 -state checkpoint.json

# Build the pondserve container image.
docker:
	docker build -t pondserve .

# Build the image and run the end-to-end container smoke: /healthz, a
# tiny run, and the streamed-log-vs-CLI determinism check (CI job).
docker-smoke:
	./scripts/docker-smoke.sh

# Elastic-pool soak: the capacity controller resizing EMCs mid-run with
# a manual shrink and a drift landing on top (the nightly elastic leg).
soak-elastic:
	$(GO) run ./cmd/pondfleet -topology flat -duration 20000 -cells 4 \
		-arrival poisson:rate=0.1:life=600 -elastic -plan-every 2000 \
		-target-qos 0.01 -inject "resize@t=5000:emc=1:slices=-32,drift@t=8000:mag=0.6"

# Long-horizon soak with the retraining loop, as the nightly workflow
# drives it (one topology; the workflow fans out the full matrix).
soak:
	$(GO) run ./cmd/pondfleet -topology sharded -duration 20000 -cells 4 \
		-arrival poisson:rate=0.1:life=600 -retrain-every 1000 \
		-inject drift@t=8000:mag=0.6 -models models-soak.json

# Fleet-scoped soak: the §5 central pipeline with staged canary rollout
# under regional drift (the nightly sharded-fleet-regional-drift leg).
soak-fleet:
	$(GO) run ./cmd/pondfleet -topology sharded -duration 20000 -cells 4 \
		-arrival poisson:rate=0.1:life=600 -retrain-every 1000 \
		-model-scope fleet -canary 0.25 -bake 2000 \
		-inject drift@t=8000:cells=2-3:mag=0.8 -models models-soak-fleet.json

# Fuzz the user-facing spec parsers for a bounded time each (seeds run
# as plain tests on every `go test`; this explores further, as CI does).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInjections$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$'    -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopologies$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzParseSweep$$'      -fuzztime $(FUZZTIME) ./internal/experiments

# Regenerate the committed golden event logs after an intentional
# behaviour or log-format change.
golden:
	$(GO) test ./internal/fleet -run Golden -update-golden
