package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtmac/internal/cli"
)

// TestExitCodes drives run through the exit contract: 0 feasible or -h, 1
// infeasible, 2 usage or I/O error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"feasible", []string{"-links", "3", "-ratio", "0.5", "-intervals", "300"}, 0},
		{"feasible as JSON", []string{"-links", "3", "-ratio", "0.5", "-intervals", "300", "-json"}, 0},
		{"-h", []string{"-h"}, 0},
		{"infeasible", []string{"-links", "10", "-rate", "0.95", "-intervals", "300"}, 1},
		{"bad flag", []string{"-nosuch"}, 2},
		{"bad -profile", []string{"-profile", "nosuch"}, 2},
		{"bad -links", []string{"-links", "0"}, 2},
		{"missing -config", []string{"-config", filepath.Join(dir, "missing.json")}, 2},
		{"unreadable -config", []string{"-config", dir}, 2},
		{"-subsets with -config", []string{"-config", "../../scenarios/control.json", "-intervals", "300", "-subsets"}, 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
