package experiments

import (
	"fmt"
	"strings"

	"pond/internal/cluster"
	"pond/internal/sim"
)

// Definition is one runnable experiment: a name, what it reproduces, and
// an entry point normalized to (Scale, ...Option). Experiments that take
// extra parameters (folds, retrain cadence) pick scale-appropriate
// defaults here.
type Definition struct {
	Name        string
	Description string
	// Slow marks the experiments that dominate wall-clock (model
	// training at fleet scale).
	Slow bool
	Run  func(scale Scale, opts ...Option) fmt.Stringer
}

// Registry lists every experiment of the reproduction in presentation
// order.
func Registry() []Definition {
	return []Definition{
		{Name: "2a", Description: "stranding vs scheduled cores", Run: func(s Scale, o ...Option) fmt.Stringer { return Figure2a(s, o...) }},
		{Name: "2b", Description: "stranding over time (8 racks)", Run: func(s Scale, o ...Option) fmt.Stringer { return Figure2b(s, o...) }},
		{Name: "3", Description: "required DRAM vs pool size", Run: func(s Scale, o ...Option) fmt.Stringer { return Figure3(s, o...) }},
		{Name: "4", Description: "slowdown by workload class", Run: func(Scale, ...Option) fmt.Stringer { return Figure4() }},
		{Name: "5", Description: "slowdown CDF under CXL latency", Run: func(Scale, ...Option) fmt.Stringer { return Figure5() }},
		{Name: "6", Description: "EMC resource budget", Run: func(Scale, ...Option) fmt.Stringer { return Figure6() }},
		{Name: "7", Description: "pool size and latency tradeoffs", Run: func(Scale, ...Option) fmt.Stringer { return Figure7() }},
		{Name: "8", Description: "EMC vs switch-only latency", Run: func(Scale, ...Option) fmt.Stringer { return Figure8() }},
		{Name: "9", Description: "pool management walkthrough", Run: func(Scale, ...Option) fmt.Stringer { return Figure9() }},
		{Name: "10", Description: "zNUMA guest topology", Run: func(Scale, ...Option) fmt.Stringer { return Figure10() }},
		{Name: "15", Description: "zNUMA traffic, internal workloads", Run: func(Scale, ...Option) fmt.Stringer { return Figure15() }},
		{Name: "16", Description: "slowdown vs spilled fraction", Run: func(Scale, ...Option) fmt.Stringer { return Figure16() }},
		{Name: "17", Description: "latency-insensitivity models", Slow: true, Run: func(s Scale, o ...Option) fmt.Stringer {
			return Figure17(foldsFor(s), samplesFor(s), o...)
		}},
		{Name: "18", Description: "untouched-memory model curve", Slow: true, Run: func(s Scale, o ...Option) fmt.Stringer { return Figure18(s, o...) }},
		{Name: "19", Description: "UM model in production (rolling)", Slow: true, Run: func(s Scale, o ...Option) fmt.Stringer {
			return Figure19(s, retrainFor(s), o...)
		}},
		{Name: "20", Description: "combined-model frontier", Slow: true, Run: func(s Scale, o ...Option) fmt.Stringer {
			return Figure20(s, frontierFoldsFor(s), o...)
		}},
		{Name: "21", Description: "end-to-end memory savings", Slow: true, Run: func(s Scale, o ...Option) fmt.Stringer { return Figure21(s, o...) }},
		{Name: "finding10", Description: "offlining speed at VM starts", Run: func(s Scale, o ...Option) fmt.Stringer { return Finding10(s, o...) }},
		{Name: "ablation-async", Description: "pool headroom vs blocked starts", Run: func(s Scale, o ...Option) fmt.Stringer { return AblationAsyncRelease(s, o...) }},
		{Name: "ablation-znuma", Description: "zNUMA vs interleaving", Run: func(Scale, ...Option) fmt.Stringer { return AblationZNUMA() }},
		{Name: "ablation-forest", Description: "forest size vs false positives", Run: func(Scale, ...Option) fmt.Stringer { return AblationForestSize() }},
		{Name: "ablation-colo", Description: "VMs sharing one CXL port", Run: func(Scale, ...Option) fmt.Stringer { return AblationCoLocation() }},
		{Name: "counter-audit", Description: "insensitivity counter ranking", Slow: true, Run: func(Scale, ...Option) fmt.Stringer { return CounterAudit(0) }},
	}
}

// foldsFor picks the Figure 17 cross-validation folds for a scale.
func foldsFor(s Scale) int {
	switch s {
	case ScaleQuick:
		return 6
	case ScalePaper:
		return 100
	default:
		return 20
	}
}

// samplesFor picks the Figure 17 samples-per-workload for a scale.
func samplesFor(s Scale) int {
	if s == ScaleQuick {
		return 2
	}
	return 3
}

// retrainFor picks the Figure 19 retrain cadence for a scale.
func retrainFor(s Scale) int {
	if s == ScaleQuick {
		return 14
	}
	return 7
}

// frontierFoldsFor picks the Figure 20 folds for a scale.
func frontierFoldsFor(s Scale) int {
	if s == ScaleQuick {
		return 4
	}
	return 20
}

// Lookup resolves comma-style experiment names against the registry.
func Lookup(names []string) ([]Definition, error) {
	reg := Registry()
	byName := make(map[string]Definition, len(reg))
	registered := make([]string, len(reg))
	for i, d := range reg {
		byName[d.Name] = d
		registered[i] = d.Name
	}
	var out []Definition
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		d, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (registered: %s)", n, strings.Join(registered, ","))
		}
		out = append(out, d)
	}
	return out, nil
}

// ParseScale maps a flag value to a Scale. The single-letter aliases
// S/M/L come from the sweep syntax.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "quick", "s", "small":
		return ScaleQuick, nil
	case "full", "m", "medium":
		return ScaleFull, nil
	case "paper", "l", "large":
		return ScalePaper, nil
	case "tiny":
		return ScaleTiny, nil
	default:
		// Includes "": a silent default here would let a stray comma in
		// a -sweep expression schedule a fleet the user never asked for.
		return ScaleFull, fmt.Errorf("experiments: unknown scale %q (want quick, full, paper, or tiny)", s)
	}
}

// SweepSpec is a scenario matrix: the cross product of trace scales and
// allocation policies, every cell evaluated under the same engine run.
type SweepSpec struct {
	Scales   []Scale
	Policies []string
}

// sweepPolicies maps policy names to the uniform pool fraction each VM
// receives.
var sweepPolicies = map[string]float64{
	"pooled": 0.30, // the paper's mid-range pool provision
	"static": 0.15, // the Figure 21 strawman
	"none":   0,    // no pooling baseline
}

// ParseSweep parses a scenario-matrix expression like
//
//	scale=quick,full x policy=pooled,static
//
// Dimensions may appear in either order; scales accept the S/M/L
// aliases.
func ParseSweep(expr string) (SweepSpec, error) {
	var spec SweepSpec
	for _, part := range strings.Split(expr, "x") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, vals, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("experiments: sweep dimension %q is not key=v1,v2", part)
		}
		switch strings.TrimSpace(strings.ToLower(key)) {
		case "scale":
			for _, v := range strings.Split(vals, ",") {
				sc, err := ParseScale(v)
				if err != nil {
					return spec, err
				}
				spec.Scales = append(spec.Scales, sc)
			}
		case "policy":
			for _, v := range strings.Split(vals, ",") {
				v = strings.TrimSpace(strings.ToLower(v))
				if _, ok := sweepPolicies[v]; !ok {
					return spec, fmt.Errorf("experiments: unknown policy %q (want pooled, static, or none)", v)
				}
				spec.Policies = append(spec.Policies, v)
			}
		default:
			return spec, fmt.Errorf("experiments: unknown sweep dimension %q (want scale or policy)", key)
		}
	}
	if len(spec.Scales) == 0 {
		spec.Scales = []Scale{ScaleQuick}
	}
	if len(spec.Policies) == 0 {
		spec.Policies = []string{"pooled", "static"}
	}
	return spec, nil
}

// SweepCell is one scenario of the matrix: a fleet at one scale packed
// once, provisioned under one policy.
type SweepCell struct {
	Scale           Scale
	Policy          string
	PoolSockets     int
	RequiredPct     float64
	SavingsPct      float64
	MeanStrandedPct float64
	VMs             int
}

// SweepResult is the evaluated scenario matrix.
type SweepResult struct {
	Cells []SweepCell
}

// RunSweep evaluates the scenario matrix. Each scale's fleet generates
// and packs once (fanned out per cluster); each (scale, policy) cell then
// computes its 16-socket pool requirement on its own engine shard. The
// serial experiment pipeline could never afford this cross product — the
// sweep exists because the engine makes cells embarrassingly parallel.
func RunSweep(spec SweepSpec, opts ...Option) SweepResult {
	rc := newRunConfig(opts)
	const poolSockets = 16

	var out SweepResult
	for _, scale := range spec.Scales {
		cfg := scale.genConfig(rc)
		traces := cluster.Generate(cfg)
		schedules := fanOut(rc, traces, func(i int, _ cluster.Trace) sim.Schedule {
			return sim.BuildSchedule(&traces[i])
		})
		series := fanOut(rc, schedules, func(i int, s sim.Schedule) []sim.StrandingSample {
			return sim.StrandingSeries(s)
		})
		var strandSum float64
		var strandN, vms int
		for i := range series {
			for _, s := range series[i] {
				strandSum += 100 * s.StrandedMemFrac
				strandN++
			}
			vms += len(traces[i].VMs)
		}
		meanStranded := 0.0
		if strandN > 0 {
			meanStranded = strandSum / float64(strandN)
		}

		cells := fanOut(rc, spec.Policies, func(_ int, policy string) SweepCell {
			frac := sweepPolicies[policy]
			var agg sim.Requirement
			for i := range schedules {
				agg.Add(sim.RequiredDRAM(schedules[i], poolSockets, sim.UniformPlan(len(traces[i].VMs), frac)))
			}
			return SweepCell{
				Scale:           scale,
				Policy:          policy,
				PoolSockets:     poolSockets,
				RequiredPct:     agg.RequiredPct(),
				SavingsPct:      agg.SavingsPct(),
				MeanStrandedPct: meanStranded,
				VMs:             vms,
			}
		})
		out.Cells = append(out.Cells, cells...)
	}
	return out
}

// String renders the matrix.
func (r SweepResult) String() string {
	var t table
	t.title("Scenario sweep: required DRAM at 16-socket pools")
	t.row("%-8s %-8s %10s %10s %10s %10s", "scale", "policy", "VMs", "stranded", "required", "savings")
	for _, c := range r.Cells {
		t.row("%-8s %-8s %10d %9.1f%% %9.1f%% %9.1f%%",
			c.Scale, c.Policy, c.VMs, c.MeanStrandedPct, c.RequiredPct, c.SavingsPct)
	}
	return t.String()
}
