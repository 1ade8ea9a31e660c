package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtmac/internal/cli"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

// appendRecord appends a one-point record whose deficiency is value.
func appendRecord(t *testing.T, store *ledger.Store, value float64) {
	t.Helper()
	rec := ledger.NewRecorder()
	rec.RecordReplication("run", "DB-DP", 0, "deficiency", ledger.BetterLower,
		stats.Replication{Seed: 1, Value: value}, nil)
	r, err := rec.Finalize("run", "test", telemetry.NewManifest("test", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(r); err != nil {
		t.Fatal(err)
	}
}

// TestExitCodes drives run through the exit contract: 0 success or -h, 1 a
// difference, 2 usage or I/O error.
func TestExitCodes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, store, 0.1)
	appendRecord(t, store, 0.9)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-dir", dir, "list"}, 0},
		{"show", []string{"-dir", dir, "show", "latest"}, 0},
		{"equal to itself", []string{"-dir", dir, "equal", "latest", "latest"}, 0},
		{"-h", []string{"-h"}, 0},
		{"different records", []string{"-dir", dir, "equal", "latest~1", "latest"}, 1},
		{"regression", []string{"-dir", dir, "diff", "latest~1", "latest"}, 1},
		{"bad flag", []string{"-nosuch"}, 2},
		{"bad -confidence", []string{"-confidence", "x", "list"}, 2},
		{"no command", []string{"-dir", dir}, 2},
		{"unknown command", []string{"-dir", dir, "nosuch"}, 2},
		{"unknown reference", []string{"-dir", dir, "show", "ffffffff"}, 2},
		{"unusable -dir", []string{"-dir", file, "list"}, 2},
		{"unreadable -events-old", []string{"-dir", dir, "-events-old", dir, "-events-new", dir, "diff", "latest", "latest"}, 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
