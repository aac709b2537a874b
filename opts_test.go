package pond

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testFleetOpts is a small grouped configuration used across the
// public-API tests.
func testFleetOpts() FleetOpts {
	return FleetOpts{
		Cluster:  ClusterOpts{Hosts: 4, EMCs: 4, PoolGB: 64, Cells: 2, DurationSec: 300},
		Arrivals: ArrivalOpts{Process: "poisson", RatePerSec: 0.1, MeanLifetimeSec: 150},
		Model:    ModelOpts{Disabled: true},
	}
}

func mustParseInjections(t *testing.T, s string) []Injection {
	t.Helper()
	ins, err := ParseInjections(s)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestDefaultsValidate pins that Defaults returns a configuration the
// shared validation accepts as-is, and that the defaults documented
// against PlanEverySec stay conditional (zero here, derived at run
// time).
func TestDefaultsValidate(t *testing.T) {
	d := Defaults()
	if err := d.Validate(); err != nil {
		t.Fatalf("Defaults() does not validate: %v", err)
	}
	if d.Cluster.Hosts == 0 || d.Cluster.EMCs == 0 || d.Arrivals.RatePerSec == 0 {
		t.Fatalf("Defaults() missing values: %+v", d)
	}
	if d.Capacity.PlanEverySec != 0 {
		t.Fatalf("PlanEverySec default must stay conditional (0), got %g", d.Capacity.PlanEverySec)
	}
	notes := DefaultNotes()
	if len(notes) == 0 {
		t.Fatal("DefaultNotes() empty")
	}
	seen := false
	for _, n := range notes {
		if n.Field == "Capacity.PlanEverySec" {
			seen = true
			if !strings.Contains(n.Note, "eighth") {
				t.Fatalf("PlanEverySec note lost the derived default: %q", n.Note)
			}
		}
	}
	if !seen {
		t.Fatal("DefaultNotes() missing Capacity.PlanEverySec")
	}
}

// TestValidateRejects routes a few invalid configurations through the
// one shared validation path. The arrival cases are the grouped fields'
// own checks: zero means the default, but an unknown process or a
// negative, non-finite, or absurdly large rate must not be coerced.
func TestValidateRejects(t *testing.T) {
	inf := math.Inf(1)
	cases := []FleetOpts{
		{Cluster: ClusterOpts{Topology: "bogus"}},
		{Arrivals: ArrivalOpts{Process: "bogus"}},
		{Arrivals: ArrivalOpts{RatePerSec: -1}},
		{Arrivals: ArrivalOpts{RatePerSec: math.NaN()}},
		{Arrivals: ArrivalOpts{RatePerSec: inf}},
		{Arrivals: ArrivalOpts{MeanLifetimeSec: -1}},
		{Arrivals: ArrivalOpts{MeanLifetimeSec: inf}},
		{Arrivals: ArrivalOpts{RatePerSec: 1e300}},                                      // presize would overflow
		{Arrivals: ArrivalOpts{RatePerSec: 10}, Cluster: ClusterOpts{DurationSec: 2e5}}, // ~2.2M per cell
		{Cluster: ClusterOpts{DurationSec: inf}},
		{Capacity: CapacityOpts{PlanEverySec: 100}}, // cadence without elastic
		{Model: ModelOpts{Scope: "galaxy"}},
	}
	for i, o := range cases {
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d validated: %+v", i, o)
		}
	}
	// The zero values still mean the defaults.
	if err := (FleetOpts{Arrivals: ArrivalOpts{Process: "trace"}}).Validate(); err != nil {
		t.Fatalf("trace with default rate and lifetime: %v", err)
	}
}

// TestInjectionJSONRoundTrip pins the wire form: an injection marshals
// as its canonical spec string and unmarshals through the same parser
// the CLI uses.
func TestInjectionJSONRoundTrip(t *testing.T) {
	in, err := ParseInjection("surge@t=300:dur=200:x=3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"surge@t=300:dur=200:x=3"` {
		t.Fatalf("marshal form: %s", b)
	}
	var back Injection
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != in.String() || back.Kind() != "surge" || back.AtSec() != 300 {
		t.Fatalf("round trip lost fields: %s kind=%s at=%g", back, back.Kind(), back.AtSec())
	}
	if err := json.Unmarshal([]byte(`"emc-fail@t=nope"`), &back); err == nil {
		t.Fatal("bad spec unmarshaled")
	}
}

// TestFleetOptsJSONRoundTrip pins the grouped wire form pondserve
// accepts: group keys, snake_case fields, injections as spec strings.
func TestFleetOptsJSONRoundTrip(t *testing.T) {
	body := `{
		"cluster": {"topology": "sharded", "hosts": 4, "emcs": 4, "pool_gb": 64, "cells": 2, "duration_sec": 300},
		"arrival": {"process": "poisson", "rate_per_sec": 0.1, "mean_lifetime_sec": 150},
		"model": {"disabled": true},
		"injections": ["emc-fail@t=150:emc=1"]
	}`
	var o FleetOpts
	if err := json.Unmarshal([]byte(body), &o); err != nil {
		t.Fatal(err)
	}
	if o.Cluster.Hosts != 4 || o.Arrivals.RatePerSec != 0.1 || !o.Model.Disabled {
		t.Fatalf("decoded opts: %+v", o)
	}
	if len(o.Injections) != 1 || o.Injections[0].Kind() != "emc-fail" {
		t.Fatalf("decoded injections: %v", o.Injections)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"injections":["emc-fail@t=150:emc=1"]`) {
		t.Fatalf("re-marshal lost injection spec form: %s", out)
	}
}

// TestStartFleetLiveInjectMatchesRunFleet is the determinism bridge at
// the public API: a live injection through FleetRun.Inject must produce
// the batch RunFleet hash, and Config must return that batch
// configuration, normalized: every default filled in, valid, and
// reported unchanged by a run started from it, which logs the same hash.
func TestStartFleetLiveInjectMatchesRunFleet(t *testing.T) {
	ctx := context.Background()
	live, err := ParseInjection("emc-fail@t=200:emc=1")
	if err != nil {
		t.Fatal(err)
	}
	small := testFleetOpts()
	smallNorm := small
	smallNorm.Cluster.Topology, smallNorm.Cluster.PodDegree = "flat", 2
	smallNorm.Model.Scope = "cell"
	smallNorm.Engine.Seed = 1
	for _, tc := range []struct {
		name       string
		opts, norm FleetOpts
	}{
		{"small", small, smallNorm},
		{"zero-groups", FleetOpts{}, Defaults()},
	} {
		for _, workers := range []int{1, 4} {
			o := tc.opts
			o.Engine.Workers = workers
			fr, err := StartFleet(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := fr.Advance(ctx, 120); err != nil {
				t.Fatal(err)
			}
			if got := fr.Progress(); got.NowSec != 120 || got.Done {
				t.Fatalf("%s: mid-run progress: %+v", tc.name, got)
			}
			if err := fr.Inject(live); err != nil {
				t.Fatal(err)
			}
			liveRep, err := fr.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}

			batch := o
			batch.Injections = append([]Injection{}, live)
			batchRep, err := RunFleet(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			if liveRep.LogSHA256 != batchRep.LogSHA256 {
				t.Fatalf("%s workers=%d: live sha %s != batch sha %s", tc.name, workers, liveRep.LogSHA256, batchRep.LogSHA256)
			}

			// Config is the checkpoint payload: the normalized options with
			// the live injection, and running it batch reproduces the log.
			cfg := fr.Config()
			want := tc.norm
			want.Engine.Workers = workers
			want.Injections = []Injection{live}
			if !reflect.DeepEqual(cfg, want) {
				t.Fatalf("%s workers=%d: Config() = %+v, want the defaults filled in: %+v", tc.name, workers, cfg, want)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: Config() does not validate: %v", tc.name, err)
			}
			ckpt, err := RunFleet(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.LogSHA256 != liveRep.LogSHA256 {
				t.Fatalf("%s: Config() does not reproduce the run: %s vs %s", tc.name, ckpt.LogSHA256, liveRep.LogSHA256)
			}
			again, err := StartFleet(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Config(), cfg) {
				t.Fatalf("%s: a run started from Config() reports %+v, want %+v", tc.name, again.Config(), cfg)
			}
			againRep, err := again.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if againRep.LogSHA256 != liveRep.LogSHA256 {
				t.Fatalf("%s: a run started from Config() logs sha %s, want %s", tc.name, againRep.LogSHA256, liveRep.LogSHA256)
			}
		}
	}
}

// TestFleetRunDrainEvents checks the streamed lines reassemble into the
// report's event log.
func TestFleetRunDrainEvents(t *testing.T) {
	ctx := context.Background()
	fr, err := StartFleet(ctx, testFleetOpts())
	if err != nil {
		t.Fatal(err)
	}
	var events []FleetLogEvent
	for _, at := range []float64{100, 200} {
		if err := fr.Advance(ctx, at); err != nil {
			t.Fatal(err)
		}
		events = append(events, fr.DrainEvents()...)
	}
	rep, err := fr.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events = append(events, fr.DrainEvents()...)

	streams := make(map[int][]string)
	for _, e := range events {
		streams[e.Cell] = append(streams[e.Cell], e.Line)
	}
	var b strings.Builder
	for c := 0; c < fr.Config().Cluster.Cells; c++ {
		for _, line := range streams[c] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	for _, line := range streams[-1] {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if b.String() != rep.EventLog {
		t.Fatalf("drained stream (%d bytes) does not reassemble into the report log (%d bytes)", b.Len(), len(rep.EventLog))
	}
}
