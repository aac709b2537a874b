package fleet

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden event logs under testdata/golden from the current code")

// goldenCases are fixed fleet configurations — every topology, one
// injection each, exercising the monitor-only manager, cell-scoped
// retraining, the fleet-scoped release train and the elastic pool —
// whose full event logs are committed under testdata/golden.
// The determinism tests elsewhere only compare worker counts against
// each other; these pin the absolute byte stream across commits, so a
// change that shifts every worker count identically (an RNG reorder, a
// log-format drift, a scheduling change) still fails loudly.
func goldenCases() map[string]Options {
	flat := testOptions()
	flat.Model.Disabled = false
	flat.Injections = mustParseInjections("emc-fail@t=200")

	sharded := testOptions()
	sharded.Cluster.Topology = "sharded"
	sharded.Injections = mustParseInjections("host-drain@t=300:host=1")

	sparse := testOptions()
	sparse.Cluster.Topology = "sparse"
	sparse.Model.Disabled = false
	sparse.Cluster.DurationSec = 800
	sparse.Arrivals.RatePerSec = 0.2
	sparse.Model.RetrainEverySec = 200
	sparse.Model.MinTrainRows = 16
	sparse.Model.Scope = ScopeFleet
	sparse.Injections = mustParseInjections("surge@t=100:dur=100:x=3")

	// The elastic-pool control plane: planning barriers resize the pool
	// against observed demand while a manual resize and a drift land
	// mid-run.
	elastic := testOptions()
	elastic.Model.Disabled = false
	elastic.Arrivals.RatePerSec = 0.2
	elastic.Capacity.Elastic = true
	elastic.Capacity.PlanEverySec = 100
	elastic.Injections = mustParseInjections("resize@t=150:emc=1:slices=-8,drift@t=250:mag=0.5")

	// Cell-scoped retraining through a drift: both model families
	// retrain, promote and demote, so the lifecycle's bytes are pinned
	// across commits and not only between runs of one build.
	retrain := testOptions()
	retrain.Model.Disabled = false
	retrain.Cluster.DurationSec = 800
	retrain.Arrivals.RatePerSec = 0.3
	retrain.Model.RetrainEverySec = 100
	retrain.Model.MinTrainRows = 16
	retrain.Injections = mustParseInjections("drift@t=300:mag=0.6")

	return map[string]Options{
		"flat-emc-fail":      flat,
		"flat-retrain-drift": retrain,
		"sharded-host-drain": sharded,
		"sparse-surge-fleet": sparse,
		"flat-elastic":       elastic,
	}
}

func mustParseInjections(s string) []Injection {
	inj, err := ParseInjections(s)
	if err != nil {
		panic(err)
	}
	return inj
}

func TestGoldenEventLogs(t *testing.T) {
	for name, o := range goldenCases() {
		name, o := name, o
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".log")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(rep.EventLog), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden log %s rewritten (%d lines, sha256=%s)",
					path, strings.Count(rep.EventLog, "\n"), rep.LogSHA256)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden log (generate with `go test ./internal/fleet -run Golden -update-golden`): %v", err)
			}
			// Recompute the stream-manifest hash from the committed log —
			// the same partition-and-hash the report performs — so the
			// golden file keeps pinning the exact bytes.
			wantSHA := EventLogSHA256(string(want), rep.Options.Cluster.Cells)
			if rep.LogSHA256 == wantSHA {
				return
			}
			// Determinism broke (or the behaviour intentionally changed):
			// point straight at the first divergent line instead of only
			// printing two hashes.
			gotLines := strings.Split(rep.EventLog, "\n")
			wantLines := strings.Split(string(want), "\n")
			line, gotL, wantL := firstDiff(gotLines, wantLines)
			t.Fatalf("event log diverged from golden %s at line %d:\n  got:  %s\n  want: %s\n"+
				"(%d vs %d lines; sha256 %s vs committed %s)\n"+
				"If this change is intentional, refresh with: go test ./internal/fleet -run Golden -update-golden",
				path, line, gotL, wantL, len(gotLines), len(wantLines),
				rep.LogSHA256, wantSHA)
		})
	}
}

// firstDiff returns the 1-based line number and both sides of the first
// divergence.
func firstDiff(got, want []string) (int, string, string) {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i + 1, got[i], want[i]
		}
	}
	g, w := "<end of log>", "<end of log>"
	if n < len(got) {
		g = got[n]
	}
	if n < len(want) {
		w = want[n]
	}
	return n + 1, g, w
}

// TestGoldenLogsCoverEveryTopology keeps the case table honest: one
// golden per topology, so a new topology shows up here as a failure.
func TestGoldenLogsCoverEveryTopology(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range goldenCases() {
		seen[o.Cluster.Topology] = true
	}
	for _, want := range []string{"flat", "sharded", "sparse"} {
		if !seen[want] {
			t.Errorf("no golden case covers topology %q", want)
		}
	}
}
