package pond

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWireFormsPinned pins the JSON of the public configuration,
// progress, and log-event types byte for byte. pondserve request bodies,
// run views, state files, and checkpoints all carry these encodings, so
// a change to the types behind them must not move a byte: each value
// marshals to the literal, and decoding the literal gives the value
// back.
func TestWireFormsPinned(t *testing.T) {
	inj, err := ParseInjections("emc-fail@t=500:emc=1,drift@t=2000:cells=2-3:mag=0.6")
	if err != nil {
		t.Fatal(err)
	}
	opts := FleetOpts{
		Cluster:  ClusterOpts{Topology: "sparse", PodDegree: 3, Hosts: 12, EMCs: 6, PoolGB: 768, Cells: 5, DurationSec: 4000.5},
		Arrivals: ArrivalOpts{Process: "poisson", RatePerSec: 0.15, MeanLifetimeSec: 450},
		Model: ModelOpts{Disabled: true, RetrainEverySec: 1000, Scope: "fleet", CanaryFraction: 0.4,
			BakeWindowSec: 1500, PromoteMargin: 0.07, HoldoutWindow: 64, MinTrainRows: 32, Capture: true},
		Capacity:   CapacityOpts{Elastic: true, PlanEverySec: 500, TargetQoS: 0.02},
		Engine:     EngineOpts{Workers: 3, Seed: 42, MetricsEverySec: 50},
		Injections: inj,
	}
	prog := FleetProgress{NowSec: 120.5, DurationSec: 4000, Done: true, Arrivals: 11, Placed: 9, Rejected: 2,
		Departed: 7, Injections: 3, LiveVMs: 2, PoolGB: 512, PoolUsedGB: 37.25, Fallbacks: 4,
		QoSViolations: 1, Retrains: 5, Rollbacks: 6}
	ev := FleetLogEvent{Cell: 2, Line: "[c2 t=1.000] depart vm=1 host=0"}

	cases := []struct {
		name string
		v    any
		into any // pointer to a zero value of v's type
		want string
	}{
		{"FleetOpts", opts, new(FleetOpts),
			`{"cluster":{"topology":"sparse","pod_degree":3,"hosts":12,"emcs":6,"pool_gb":768,"cells":5,"duration_sec":4000.5},` +
				`"arrival":{"process":"poisson","rate_per_sec":0.15,"mean_lifetime_sec":450},` +
				`"model":{"disabled":true,"retrain_every_sec":1000,"scope":"fleet","canary_fraction":0.4,"bake_window_sec":1500,` +
				`"promote_margin":0.07,"holdout_window":64,"min_train_rows":32,"capture":true},` +
				`"capacity":{"elastic":true,"plan_every_sec":500,"target_qos":0.02},` +
				`"engine":{"workers":3,"seed":42,"metrics_every_sec":50},` +
				`"injections":["emc-fail@t=500:emc=1","drift@t=2000:cells=2-3:mag=0.6"]}`},
		{"FleetProgress", prog, new(FleetProgress),
			`{"now_sec":120.5,"duration_sec":4000,"done":true,"arrivals":11,"placed":9,"rejected":2,"departed":7,` +
				`"injections":3,"live_vms":2,"pool_gb":512,"pool_used_gb":37.25,"fallbacks":4,"qos_violations":1,` +
				`"retrains":5,"rollbacks":6}`},
		{"FleetLogEvent", ev, new(FleetLogEvent),
			`{"cell":2,"line":"[c2 t=1.000] depart vm=1 host=0"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.want {
				t.Fatalf("wire form moved:\n got %s\nwant %s", b, tc.want)
			}
			if err := json.Unmarshal([]byte(tc.want), tc.into); err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(tc.into).Elem().Interface(); !reflect.DeepEqual(got, tc.v) {
				t.Fatalf("decoding the literal gave %+v, want %+v", got, tc.v)
			}
		})
	}
}
