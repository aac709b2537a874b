package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pond"
)

// TestMain lets the test binary stand in for the pondreport binary, so
// the tests below run the real main() and see its real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("PONDREPORT_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runMain runs main() in a subprocess and returns its stdout, stderr
// and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PONDREPORT_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), errOut.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

// TestStdoutMatchesRunExperiments: stdout is the experiment outputs
// alone, byte-identical for any worker count and equal to what
// pond.RunExperiments renders for the same scale, seed and names.
func TestStdoutMatchesRunExperiments(t *testing.T) {
	names := []string{"4", "9", "2a"}
	var want strings.Builder
	res, err := pond.RunExperiments(context.Background(), pond.ExperimentOptions{Scale: "tiny", Figures: names})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		want.WriteString(r.Output + "\n")
	}
	for _, workers := range []string{"1", "3"} {
		out, errOut, code := runMain(t, "-figures", strings.Join(names, ","), "-scale", "tiny", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\n%s", workers, code, errOut)
		}
		if out != want.String() {
			t.Fatalf("-workers %s: stdout differs from pond.RunExperiments:\n%s\nwant:\n%s", workers, out, want.String())
		}
		if !strings.Contains(errOut, "[2a took") {
			t.Fatalf("-workers %s: stderr lacks the per-experiment wall time:\n%s", workers, errOut)
		}
	}
}

// TestBadFlagsExitCode2: every rejected flag exits 2 and points at
// usage before any experiment runs.
func TestBadFlagsExitCode2(t *testing.T) {
	cases := [][]string{
		{"-figures", "ablation"},
		{"-scale", "huge"},
		{"-workers", "-1"},
		{"-seed", "0"},
		{"-sweep", "scale=quick x colour=red"},
		{"-folds", "10"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, errOut, code := runMain(t, args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errOut)
			}
			if out != "" {
				t.Fatalf("stdout not empty:\n%s", out)
			}
			if !strings.Contains(strings.ToLower(errOut), "usage") {
				t.Fatalf("stderr does not point at usage:\n%s", errOut)
			}
		})
	}
	// The unknown-name error lists the registered names, so the old
	// tool-local short name leads to its replacements.
	if _, errOut, _ := runMain(t, "-figures", "ablation"); !strings.Contains(errOut, "ablation-async") {
		t.Fatalf("unknown-name error does not list the registered names:\n%s", errOut)
	}
}
