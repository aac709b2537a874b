#!/usr/bin/env bash
# Builds the Pond benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, state
# files and spans all go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go/cache" "$build/go/tmp" "$build/go/path"
export GOCACHE="$build/go/cache" GOTMPDIR="$build/go/tmp" GOPATH="$build/go/path" \
	GOMODCACHE="$build/go/path/pkg/mod" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
