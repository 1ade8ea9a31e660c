package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtmac"
	"rtmac/internal/cli"
)

// TestDetectModeSkipsLeadingWhitespace: the mode probe reads the first
// non-blank line, as the stream readers do.
func TestDetectModeSkipsLeadingWhitespace(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, content, want string }{
		{"events", "\n " + `{"schema":"rtmac.events","schema_version":1}` + "\n", "events"},
		{"journeys", "\r\n\n" + `{"schema":"rtmac.journeys","schema_version":1}` + "\n", "journeys"},
		{"legacy-journeys", "\n" + `{"seq":0,"k":0,"link":0,"cause":"delivered"}` + "\n", "journeys"},
		{"legacy-events", "  \n" + `{"k":0,"t":10,"link":0,"kind":"tx"}` + "\n", "events"},
	} {
		path := filepath.Join(dir, tc.name+".jsonl")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := detectMode(path)
		if err != nil || got != tc.want {
			t.Errorf("%s: detectMode = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}

// record writes the event stream of a short seeded DB-DP run, with one extra
// arrival at interval 20 when perturb is set, and returns its path.
func record(t *testing.T, name string, perturb bool) string {
	t.Helper()
	links := make([]rtmac.Link, 4)
	for i := range links {
		links[i] = rtmac.Link{SuccessProb: 0.7, Arrivals: rtmac.MustBernoulliArrivals(0.5), DeliveryRatio: 0.9}
	}
	cfg := rtmac.Config{Seed: 7, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP()}
	if perturb {
		cfg.Perturb = &rtmac.Perturbation{K: 20, Link: 1, Extra: 1}
	}
	s, err := rtmac.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stream := s.StreamEvents(f)
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes drives run through the exit contract: 0 equal streams or
// -h, 1 differing streams, 2 usage or I/O error.
func TestExitCodes(t *testing.T) {
	a, b, p := record(t, "a", false), record(t, "b", false), record(t, "p", true)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"equal", []string{"-check-equal", a, b}, 0},
		{"-h", []string{"-h"}, 0},
		{"differ", []string{a, p}, 1},
		{"differ as JSON", []string{"-json", a, p}, 1},
		{"bad flag", []string{"-nosuch", a, b}, 2},
		{"bad -mode", []string{"-mode", "nosuch", a, b}, 2},
		{"one input", []string{a}, 2},
		{"unreadable input", []string{t.TempDir(), b}, 2},
		{"missing input", []string{a, filepath.Join(t.TempDir(), "missing.jsonl")}, 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
