// Package cliutil holds the flag validation shared by the cmd/ tools.
// Bad -workers or -seed values used to be silently clamped deep inside
// the engine; the tools now reject them up front with a usage message and
// a non-zero exit so automation notices the mistake.
package cliutil

import (
	"fmt"
	"os"
)

// ValidateRun checks the two flags every engine-driven tool shares: it
// rejects negative worker counts (0 means GOMAXPROCS and stays valid)
// and non-positive seeds (ValidateSeed).
func ValidateRun(workers int, seed int64) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	return ValidateSeed(seed)
}

// ValidateSeed rejects non-positive seeds: every deterministic stream in
// the repo derives from a positive root seed, and 0 is reserved for
// "use the default" in the public API.
func ValidateSeed(seed int64) error {
	if seed <= 0 {
		return fmt.Errorf("-seed must be a positive integer, got %d", seed)
	}
	return nil
}

// Fatal prints "<tool>: <error>", points at -h for usage, and exits 2 —
// the conventional flag-error exit code.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\nrun '%s -h' for usage\n", tool, err, tool)
	os.Exit(2)
}
