package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
	"rtmac/internal/cli"
	"rtmac/scenario"
)

// flagDocument is the one-group scenario document main builds from the
// command-line flags, at the flags' defaults apart from the named profile,
// protocol and swap pairs.
func flagDocument(profile, protocol string, pairs int) scenario.Document {
	return scenario.Document{
		Seed:      1,
		Intervals: 10,
		Profile:   scenario.ProfileSpec{Preset: profile},
		Protocol:  scenario.ProtocolSpec{Name: protocol, Pairs: pairs},
		Links: []scenario.LinkGroup{{
			Count:         10,
			SuccessProb:   0.7,
			Arrivals:      scenario.ArrivalsSpec{Type: "bernoulli", Param: 0.78},
			DeliveryRatio: 0.99,
		}},
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]rtmac.Profile{
		"video":   rtmac.VideoProfile(),
		"control": rtmac.ControlProfile(),
	} {
		cfg, _, err := scenario.Build(flagDocument(name, "dbdp", 1))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.Profile != want {
			t.Errorf("%s: resolved to the wrong profile", name)
		}
	}
	if _, _, err := scenario.Build(flagDocument("lte", "dbdp", 1)); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range []string{"dbdp", "ldf", "eldf", "fcsma", "framecsma", "tdma", "dcf"} {
		cfg, _, err := scenario.Build(flagDocument("control", name, 1))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.Protocol.Label() == "" {
			t.Errorf("%s: empty label", name)
		}
	}
	if _, _, err := scenario.Build(flagDocument("control", "aloha", 1)); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, _, err := scenario.Build(flagDocument("control", "dbdp", 3)); err != nil {
		t.Errorf("multi-pair dbdp rejected: %v", err)
	}
}

// runForArtifacts simulates a short DB-DP run writing an event stream and a
// Perfetto trace, returning both paths.
func runForArtifacts(t *testing.T) (eventsPath, tracePath string) {
	t.Helper()
	dir := t.TempDir()
	eventsPath = filepath.Join(dir, "events.jsonl")
	tracePath = filepath.Join(dir, "trace.json")
	links := make([]rtmac.Link, 5)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 3, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	stream := s.StreamEvents(ef)
	trace := s.ExportPerfetto(tf)
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := trace.Flush(); err != nil {
		t.Fatal(err)
	}
	return eventsPath, tracePath
}

func TestCheckEventsAuditsRecordedRun(t *testing.T) {
	eventsPath, _ := runForArtifacts(t)
	if err := checkEvents(io.Discard, io.Discard, eventsPath); err != nil {
		t.Fatalf("clean recorded run failed the audit: %v", err)
	}
}

func TestCheckEventsFlagsCorruptedStream(t *testing.T) {
	eventsPath, _ := runForArtifacts(t)
	// Forge a collision into the recorded collision-free run.
	forged := `{"k":0,"at":150,"link":0,"kind":"tx","fields":{"dur":100,"empty":0,"outcome":2}}` + "\n"
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(eventsPath, append([]byte(forged), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = checkEvents(io.Discard, io.Discard, eventsPath)
	if err == nil {
		t.Fatal("forged collision passed the audit")
	}
	if !strings.Contains(err.Error(), "violation") {
		t.Errorf("error %q does not mention violations", err)
	}
}

func TestCheckPerfetto(t *testing.T) {
	_, tracePath := runForArtifacts(t)
	if err := run(context.Background(), []string{"-checkperfetto", tracePath}, io.Discard, io.Discard); err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-checkperfetto", bad}, io.Discard, io.Discard); err == nil {
		t.Fatal("garbage trace passed validation")
	}
}

// TestExitCodes drives run in-process through the exit contract: 0 success
// or -h, 1 a finding, 2 usage or I/O error.
func TestExitCodes(t *testing.T) {
	eventsPath, _ := runForArtifacts(t)
	dir := t.TempDir()
	corrupted := filepath.Join(dir, "corrupted.jsonl")
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	// A forged collision in the recorded collision-free run.
	forged := `{"k":0,"at":150,"link":0,"kind":"tx","fields":{"dur":100,"empty":0,"outcome":2}}` + "\n"
	if err := os.WriteFile(corrupted, append([]byte(forged), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"short run", []string{"-intervals", "20", "-links", "4"}, 0},
		{"-h", []string{"-h"}, 0},
		{"clean stream", []string{"-checkevents", eventsPath}, 0},
		{"bad flag", []string{"-nosuch"}, 2},
		{"bad -sample-tx", []string{"-sample-tx", "0"}, 2},
		{"bad -pairs", []string{"-pairs", "0"}, 2},
		{"unknown protocol", []string{"-protocol", "nosuch"}, 2},
		{"NaN -slo-budget", []string{"-intervals", "20", "-slo-budget", "NaN"}, 2},
		{"missing -config", []string{"-config", filepath.Join(dir, "missing.json")}, 2},
		{"uncreatable -events", []string{"-intervals", "20", "-events", filepath.Join(empty, "e.jsonl")}, 2},
		{"unreadable -checkevents", []string{"-checkevents", dir}, 2},
		{"missing -checkevents", []string{"-checkevents", filepath.Join(dir, "missing.jsonl")}, 2},
		{"corrupted stream", []string{"-checkevents", corrupted}, 1},
		{"empty stream", []string{"-checkevents", empty}, 1},
		{"malformed trace", []string{"-checkperfetto", empty}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}
