// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §6). Each FigureN function returns a structured result
// with a String method that prints the same rows or series the paper
// reports; the cmd/ tools and the repository's benchmarks are thin
// wrappers around these entry points.
//
// Scale: every trace-driven experiment takes a Scale that controls how
// many clusters and days the synthetic fleet spans. ScaleQuick keeps unit
// tests and benchmarks fast; ScalePaper approximates the paper's 100
// clusters x 75 days.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"pond/internal/cluster"
	"pond/internal/engine"
)

// DefaultSeed is the fleet-wide default seed; every experiment derives
// its own stream from it, so the whole evaluation is reproducible.
const DefaultSeed = 42

// RunConfig carries the cross-cutting knobs of an experiment run. Every
// figure pipeline shards its work (per cluster, per fold, per retrain
// day) over the engine's worker pool; Workers bounds that pool and Seed
// roots every derived stream. Results are byte-identical for any worker
// count.
type RunConfig struct {
	// Workers bounds pipeline parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Seed roots all generation and training streams (DefaultSeed when
	// unset through options).
	Seed int64
}

// Option tunes how an experiment pipeline runs.
type Option func(*RunConfig)

// WithWorkers bounds the worker pool (1 forces serial execution).
func WithWorkers(n int) Option { return func(rc *RunConfig) { rc.Workers = n } }

// WithSeed replaces DefaultSeed as the root of every derived stream.
func WithSeed(seed int64) Option { return func(rc *RunConfig) { rc.Seed = seed } }

// newRunConfig folds options over the defaults.
func newRunConfig(opts []Option) RunConfig {
	rc := RunConfig{Seed: DefaultSeed}
	for _, o := range opts {
		o(&rc)
	}
	return rc
}

// genConfig returns the scale's generator configuration under rc.
func (s Scale) genConfig(rc RunConfig) cluster.GenConfig {
	cfg := s.GenConfig()
	cfg.Seed = rc.Seed
	cfg.Workers = rc.Workers
	return cfg
}

// fanOut runs fn over every item on the engine's worker pool and returns
// the results in item order — the deterministic fan-out/merge primitive
// behind each figure pipeline. fn must not mutate state shared across
// items, and must depend only on the item and its index.
func fanOut[T, R any](rc RunConfig, items []T, fn func(i int, item T) R) []R {
	out, err := engine.Map(context.Background(), items, rc.Workers,
		func(i int, item T) (R, error) {
			return fn(i, item), nil
		})
	if err != nil {
		panic("experiments: " + err.Error()) // unreachable: jobs cannot fail
	}
	return out
}

// Scale selects the size of trace-driven experiments.
type Scale int

// Available scales.
const (
	// ScaleQuick: a handful of clusters, enough for shape checks.
	ScaleQuick Scale = iota
	// ScaleFull: the default evaluation scale (fraction of the paper's
	// fleet, same distributions).
	ScaleFull
	// ScalePaper: 100 clusters over 75 days, as in the paper. Slow.
	ScalePaper
	// ScaleTiny: the smallest fleet that still exercises every pipeline
	// stage; the determinism tests and `go test -short` run at it.
	ScaleTiny
)

// GenConfig returns the trace-generator configuration for the scale.
func (s Scale) GenConfig() cluster.GenConfig {
	cfg := cluster.DefaultGenConfig()
	cfg.Seed = DefaultSeed
	switch s {
	case ScaleTiny:
		cfg.Clusters = 2
		cfg.Days = 12
		cfg.ServersPerCluster = 6
	case ScaleQuick:
		cfg.Clusters = 6
		cfg.Days = 25
		cfg.ServersPerCluster = 12
	case ScalePaper:
		cfg.Clusters = 100
		cfg.Days = 75
		cfg.ServersPerCluster = 16
	default: // ScaleFull
		cfg.Clusters = 24
		cfg.Days = 75
		cfg.ServersPerCluster = 16
	}
	return cfg
}

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleQuick:
		return "quick"
	case ScalePaper:
		return "paper"
	default:
		return "full"
	}
}

// table is a tiny fixed-width text-table builder shared by the result
// renderers.
type table struct {
	b strings.Builder
}

func (t *table) title(s string) {
	t.b.WriteString(s)
	t.b.WriteString("\n")
	t.b.WriteString(strings.Repeat("-", len(s)))
	t.b.WriteString("\n")
}

func (t *table) row(format string, args ...any) {
	fmt.Fprintf(&t.b, format, args...)
	t.b.WriteString("\n")
}

func (t *table) String() string { return t.b.String() }
