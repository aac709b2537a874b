package cliutil

import (
	"strings"
	"testing"
)

func TestValidateRun(t *testing.T) {
	cases := []struct {
		workers int
		seed    int64
		want    string // substring of the error; "" means valid
	}{
		{0, 1, ""},
		{16, 42, ""},
		{-1, 1, "-workers must be >= 0"},
		{4, 0, "-seed must be a positive integer"},
		{4, -7, "-seed must be a positive integer, got -7"},
		{-1, 0, "-workers"}, // the first violation is the one reported
	}
	for _, c := range cases {
		err := ValidateRun(c.workers, c.seed)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("ValidateRun(%d, %d) = %v, want nil", c.workers, c.seed, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("ValidateRun(%d, %d) = %v, want an error containing %q", c.workers, c.seed, err, c.want)
		}
	}
}
