package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtmac/internal/cli"
)

// TestExitCodes drives run through the exit contract: 0 success or -h, 2
// usage or I/O error. A strict-monitor violation, the only finding, needs a
// broken protocol to provoke and is covered by the monitor's own tests.
func TestExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	quick := []string{"-fig", "fig3", "-scale", "0.005", "-seeds", "1", "-quiet"}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"one figure", quick, 0},
		{"-list", []string{"-list"}, 0},
		{"-h", []string{"-h"}, 0},
		{"bad flag", []string{"-nosuch"}, 2},
		{"unknown figure", []string{"-fig", "nosuch"}, 2},
		{"bad -seedlist", []string{"-seedlist", "x"}, 2},
		{"NaN -slo-budget", append([]string{"-slo-budget", "NaN"}, quick...), 2},
		{"unwritable -csv", append([]string{"-csv", filepath.Join(file, "csv")}, quick...), 2},
		{"unwritable -html", append([]string{"-html", filepath.Join(file, "r.html")}, quick...), 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
