package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pond/internal/topo"
)

// Injection kinds.
const (
	// InjectEMCFail fails one EMC at t: its slices are gone, every VM
	// with memory on it is lost (the §4.2 blast radius), and the device
	// serves no further capacity.
	InjectEMCFail = "emc-fail"
	// InjectHostDrain puts one host into maintenance drain at t: no new
	// placements, resident VMs live-migrate to all-local placements where
	// capacity allows.
	InjectHostDrain = "host-drain"
	// InjectSurge multiplies the arrival rate by Factor over [t, t+dur].
	InjectSurge = "surge"
	// InjectDrift shifts the tenant population at t: customers'
	// untouched-memory behaviour moves toward its complement and a Mag
	// fraction of them switch workload sets, so models trained on
	// pre-drift telemetry go stale — the scenario online retraining is
	// for.
	InjectDrift = "drift"
	// InjectResize grows (slices > 0) or shrinks (slices < 0) one EMC's
	// active capacity mid-run through the Pool Manager's elastic APIs —
	// the manual counterpart of the capacity controller's planned
	// resizes. A shrink retires only free slices, so the applied delta
	// can fall short of the request.
	InjectResize = "resize"
)

// MaxResizeSlices bounds a single resize injection's magnitude (1 PB of
// 1 GB slices): larger requests are deployment-spec typos, and an
// unbounded grow would materialize the slice table for whatever number
// parses — rejected at parse time, per the parsers' no-runtime-surprise
// discipline.
const MaxResizeSlices = 1 << 20

// Injection is one scheduled scenario event — an EMC failure, host
// drain, demand surge, workload drift, or pool resize. Its canonical
// form is the spec string the -inject flag takes (for example
// "emc-fail@t=500:emc=1"); ParseInjection and String round-trip it, and
// JSON marshals it as that string, so the Go API, the CLI, and pondserve
// request bodies all share one parser and one validation path.
//
// The zero Injection is invalid. The fields are unexported so that code
// outside this package can only build one through ParseInjection (or
// by decoding its JSON spec string), which applies every parse-time
// check.
type Injection struct {
	kind  string
	atSec float64

	// emc is the target device for emc-fail and resize (default 0).
	emc int
	// host is the target host for host-drain (default 0).
	host int
	// durSec and factor shape a surge (defaults 200 s, 2x).
	durSec float64
	factor float64
	// mag is the drift magnitude in (0, 1] (default 0.5): how far each
	// customer's untouched-memory mean moves and the probability that a
	// customer's workload set is replaced.
	mag float64
	// cellLo..cellHi is the inclusive cell range a drift hits
	// (regionally-correlated workload shifts; parsed from cells=a-b).
	// cellHi < 0 — the parser default — means every cell.
	cellLo, cellHi int
	// slices is the signed capacity delta of a resize (non-zero; parsed
	// from slices=±N).
	slices int
}

// Kind is the scenario kind: "emc-fail", "host-drain", "surge",
// "drift", or "resize".
func (in Injection) Kind() string { return in.kind }

// AtSec is the simulated time the injection fires.
func (in Injection) AtSec() float64 { return in.atSec }

// MarshalJSON encodes the injection as its canonical spec string.
func (in Injection) MarshalJSON() ([]byte, error) {
	return json.Marshal(in.String())
}

// UnmarshalJSON decodes a spec string, running the same parser and
// checks as the CLI flag.
func (in *Injection) UnmarshalJSON(data []byte) error {
	var spec string
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	parsed, err := ParseInjection(spec)
	if err != nil {
		return err
	}
	*in = parsed
	return nil
}

// AppliesTo reports whether a drift injection hits the given cell.
// Non-drift injections hit every cell.
func (in Injection) AppliesTo(cell int) bool {
	if in.kind != InjectDrift || in.cellHi < 0 {
		return true
	}
	return cell >= in.cellLo && cell <= in.cellHi
}

// String renders the canonical spec; ParseInjection(in.String())
// reproduces the injection exactly.
func (in Injection) String() string {
	switch in.kind {
	case InjectEMCFail:
		return fmt.Sprintf("%s@t=%g:emc=%d", in.kind, in.atSec, in.emc)
	case InjectHostDrain:
		return fmt.Sprintf("%s@t=%g:host=%d", in.kind, in.atSec, in.host)
	case InjectSurge:
		return fmt.Sprintf("%s@t=%g:dur=%g:x=%g", in.kind, in.atSec, in.durSec, in.factor)
	case InjectDrift:
		if in.cellHi >= 0 {
			return fmt.Sprintf("%s@t=%g:cells=%d-%d:mag=%g", in.kind, in.atSec, in.cellLo, in.cellHi, in.mag)
		}
		return fmt.Sprintf("%s@t=%g:mag=%g", in.kind, in.atSec, in.mag)
	case InjectResize:
		return fmt.Sprintf("%s@t=%g:emc=%d:slices=%+d", in.kind, in.atSec, in.emc, in.slices)
	default:
		return in.kind
	}
}

// ParseInjections parses a comma-separated injection list:
//
//	emc-fail@t=500
//	emc-fail@t=500:emc=1
//	host-drain@t=800:host=2
//	surge@t=300:dur=200:x=3
//	drift@t=2000:mag=0.6
//	drift@t=2000:cells=2-3:mag=0.6
//	resize@t=500:emc=1:slices=-8
func ParseInjections(s string) ([]Injection, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Injection
	for _, spec := range strings.Split(s, ",") {
		in, err := ParseInjection(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// ParseInjection parses a single injection spec — one element of the
// comma-separated ParseInjections grammar. It is the entry point for
// callers that handle injections one at a time, like pondserve's
// live-injection bodies; ParseInjections loops over it.
func ParseInjection(spec string) (Injection, error) {
	spec = strings.TrimSpace(spec)
	kind, rest, ok := strings.Cut(spec, "@")
	if !ok {
		return Injection{}, fmt.Errorf("fleet: injection %q needs kind@t=SEC", spec)
	}
	in := Injection{kind: kind, atSec: -1, durSec: 200, factor: 2, mag: 0.5, cellLo: 0, cellHi: -1}
	// Parameters valid per kind; a parameter on the wrong kind would
	// parse, render nowhere in String(), and silently do nothing — so it
	// is rejected instead.
	allowed, ok := map[string]string{
		InjectEMCFail:   "t,emc",
		InjectHostDrain: "t,host",
		InjectSurge:     "t,dur,x",
		InjectDrift:     "t,mag,cells",
		InjectResize:    "t,emc,slices",
	}[kind]
	if !ok {
		return in, fmt.Errorf("fleet: unknown injection kind %q (want %s, %s, %s, %s, %s)",
			kind, InjectEMCFail, InjectHostDrain, InjectSurge, InjectDrift, InjectResize)
	}
	for _, p := range strings.Split(rest, ":") {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return in, fmt.Errorf("fleet: injection parameter %q is not key=value", p)
		}
		valid := false
		for _, a := range strings.Split(allowed, ",") {
			if k == a {
				valid = true
				break
			}
		}
		if !valid {
			return in, fmt.Errorf("fleet: %s takes parameters %s, not %q", kind, allowed, k)
		}
		switch k {
		case "t", "dur", "x", "mag":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				return in, fmt.Errorf("fleet: injection parameter %s=%q must be a non-negative number", k, v)
			}
			switch k {
			case "t":
				in.atSec = f
			case "dur":
				in.durSec = f
			case "x":
				in.factor = f
			case "mag":
				in.mag = f
			}
		case "emc", "host":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return in, fmt.Errorf("fleet: injection parameter %s=%q must be a non-negative integer", k, v)
			}
			if k == "emc" {
				in.emc = n
			} else {
				in.host = n
			}
		case "slices":
			n, err := strconv.Atoi(v)
			if err != nil || n == 0 || n < -MaxResizeSlices || n > MaxResizeSlices {
				return in, fmt.Errorf("fleet: injection parameter slices=%q must be a non-zero integer in [-%d, %d]",
					v, MaxResizeSlices, MaxResizeSlices)
			}
			in.slices = n
		case "cells":
			lo, hi, err := parseCellRange(v)
			if err != nil {
				return in, err
			}
			in.cellLo, in.cellHi = lo, hi
		default:
			return in, fmt.Errorf("fleet: unknown injection parameter %q", k)
		}
	}
	if in.atSec < 0 {
		return in, fmt.Errorf("fleet: injection %q is missing t=SEC", spec)
	}
	if in.kind == InjectSurge && in.factor <= 1 {
		return in, fmt.Errorf("fleet: surge factor x=%g must exceed 1", in.factor)
	}
	if in.kind == InjectDrift && (in.mag <= 0 || in.mag > 1) {
		return in, fmt.Errorf("fleet: drift magnitude mag=%g must be in (0, 1]", in.mag)
	}
	if in.kind == InjectResize && in.slices == 0 {
		return in, fmt.Errorf("fleet: resize injection %q is missing slices=±N", spec)
	}
	return in, nil
}

// parseCellRange parses "a-b" (inclusive) or a single "a" into a cell
// range. The upper bound against the fleet's cell count is checked by
// Options normalization, which knows it.
func parseCellRange(v string) (lo, hi int, err error) {
	loS, hiS, dashed := strings.Cut(v, "-")
	if !dashed {
		hiS = loS
	}
	lo, err = strconv.Atoi(loS)
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("fleet: cells=%q must be a-b or a with non-negative integers", v)
	}
	hi, err = strconv.Atoi(hiS)
	if err != nil || hi < 0 {
		return 0, 0, fmt.Errorf("fleet: cells=%q must be a-b or a with non-negative integers", v)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("fleet: cells=%q is an empty range", v)
	}
	return lo, hi, nil
}

// ParseTopologies parses a comma-separated topology list as the
// pondfleet -topology flag takes it. Every entry must name a known
// topology; empty entries (a stray comma) are rejected rather than
// silently running the default topology an extra time.
func ParseTopologies(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fleet: empty topology list")
	}
	known := topo.Names()
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		ok := false
		for _, k := range known {
			if name == k {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("fleet: unknown topology %q (want %s)", name, strings.Join(known, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}
