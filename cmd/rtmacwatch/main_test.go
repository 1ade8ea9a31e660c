package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
	"rtmac/internal/cli"
)

// recordRun simulates a short feasible DB-DP run (5 links, the paper's
// control-profile parameters) and returns the recorded event stream path.
func recordRun(t testing.TB, intervals int) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	links := make([]rtmac.Link, 5)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed: 7, Profile: rtmac.ControlProfile(), Links: links, Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stream := s.StreamEvents(f)
	if err := s.Run(intervals); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runWatch(ctx context.Context, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	err := run(ctx, args, &out, &errb)
	if err != nil {
		fmt.Fprintln(&errb, "rtmacwatch:", err)
	}
	return cli.ExitCode(err), out.String(), errb.String()
}

func TestResolveTargets(t *testing.T) {
	targets, _, err := resolveTargets("0.5, 0.25,1", "", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25, 1}
	for i, q := range want {
		if targets[i] != q {
			t.Errorf("target %d = %v, want %v", i, targets[i], q)
		}
	}
	if _, _, err := resolveTargets("", "", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, _, err := resolveTargets("0.5", "x.json", ""); err == nil {
		t.Error("two sources accepted")
	}
	if _, _, err := resolveTargets("0.5,nope", "", ""); err == nil {
		t.Error("malformed -q accepted")
	}
}

func TestReplayConformingStream(t *testing.T) {
	path := recordRun(t, 1200)
	// The five links are comfortably feasible at their true targets
	// q = 0.99 · 0.78, so a conforming audit exits 0 with zero alerts.
	code, stdout, stderr := runWatch(context.Background(),
		"-q", "0.7722,0.7722,0.7722,0.7722,0.7722", path)
	if code != 0 {
		t.Fatalf("conforming stream exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, " 0 alerts") {
		t.Errorf("summary missing zero-alert count: %s", stdout)
	}
}

func TestReplayFlagsStarvedTargets(t *testing.T) {
	path := recordRun(t, 1200)
	// Demanding 1.5 delivered packets/interval per link (aggregate 7.5 of a
	// ~3.9 packet budget) starves every link: the burn-rate detector must
	// fire once its slow window primes.
	code, stdout, _ := runWatch(context.Background(),
		"-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("starved targets exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "burn_rate") {
		t.Errorf("expected burn_rate alerts, got: %s", stdout)
	}
}

func TestCheckModeSuppressesAlertLines(t *testing.T) {
	path := recordRun(t, 1200)
	code, stdout, _ := runWatch(context.Background(),
		"-check", "-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.HasPrefix(line, "rtmacwatch:") {
			t.Errorf("-check leaked a non-summary line: %q", line)
		}
	}
}

func TestAlertsArtifact(t *testing.T) {
	path := recordRun(t, 1200)
	alertsPath := filepath.Join(t.TempDir(), "alerts.jsonl")
	code, _, _ := runWatch(context.Background(),
		"-check", "-alerts", alertsPath, "-q", "1.5,1.5,1.5,1.5,1.5", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	data, err := os.ReadFile(alertsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"burn_rate"`)) {
		t.Errorf("alerts artifact missing burn_rate transitions: %s", data)
	}
}

func TestTargetsFromSLODoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	doc := `{"feasible": true, "per_link": [
		{"link": 1, "required": 0.25, "success_prob": 0.7, "arrival_rate": 0.5},
		{"link": 0, "required": 0.75, "success_prob": 0.7, "arrival_rate": 1.0}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, err := targetsFromSLODoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0] != 0.75 || targets[1] != 0.25 {
		t.Errorf("targets = %v, want [0.75 0.25] (ordered by link index)", targets)
	}
	bad := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(bad, []byte(`{"feasible": false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := targetsFromSLODoc(bad); err == nil {
		t.Error("document without per_link accepted")
	}
}

func TestTargetsFromScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	doc := `{
		"seed": 1, "intervals": 100,
		"profile": {"preset": "control"},
		"protocol": {"name": "dbdp"},
		"links": [
			{"count": 2, "successProb": 0.7,
			 "arrivals": {"type": "bernoulli", "param": 0.5}, "deliveryRatio": 0.9}
		],
		"slo": {"budget": 0.2, "targets": [0.4, 0.3]}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, budget, err := targetsFromScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0] != 0.4 || targets[1] != 0.3 {
		t.Errorf("targets = %v, want the scenario's slo section [0.4 0.3]", targets)
	}
	if budget != 0.2 {
		t.Errorf("budget = %v, want 0.2", budget)
	}

	// Without an slo section the feasibility-derived requirement vector
	// (ratio × arrival rate) is the target.
	noSLO := strings.Replace(doc, `"slo": {"budget": 0.2, "targets": [0.4, 0.3]}`, `"slo": null`, 1)
	if err := os.WriteFile(path, []byte(noSLO), 0o644); err != nil {
		t.Fatal(err)
	}
	targets, budget, err = targetsFromScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 0 {
		t.Errorf("budget = %v, want 0 (engine default)", budget)
	}
	want := 0.9 * 0.5
	for i, q := range targets {
		if q < want-1e-9 || q > want+1e-9 {
			t.Errorf("target %d = %v, want %v", i, q, want)
		}
	}
}

// TestTailSSE replays a recorded stream through an SSE endpoint shaped like
// the simulator's /events and checks the tail path audits it identically
// to a file replay.
func TestTailSSE(t *testing.T) {
	path := recordRun(t, 1200)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			first = false // schema header is a JSONL artifact, not an SSE event
			if strings.Contains(sc.Text(), "schema") {
				continue
			}
		}
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": stream open\n\n")
		for _, l := range lines {
			fmt.Fprintf(w, "data: %s\n\n", l)
		}
	}))
	defer srv.Close()

	code, stdout, stderr := runWatch(context.Background(),
		"-check", "-q", "0.7722,0.7722,0.7722,0.7722,0.7722", "-tail", srv.URL)
	if code != 0 {
		t.Fatalf("tail audit exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, fmt.Sprintf("%d events", len(lines))) {
		t.Errorf("tail consumed a different event count: %s (served %d)", stdout, len(lines))
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runWatch(context.Background(), "-q", "0.5"); code != 2 {
		t.Errorf("missing input exited %d, want 2", code)
	}
	if code, _, _ := runWatch(context.Background(), "-q", "0.5", "-tail", "http://x", "file.jsonl"); code != 2 {
		t.Errorf("-tail plus file exited %d, want 2", code)
	}
	if code, _, _ := runWatch(context.Background(), "-q", "0.5", "missing-file.jsonl"); code != 2 {
		t.Errorf("unreadable file exited %d, want 2", code)
	}
}

// TestExitCodes drives run through the exit contract: 0 a conforming
// stream or -h, 1 alerts, 2 usage or I/O error.
func TestExitCodes(t *testing.T) {
	path := recordRun(t, 1200)
	q5 := "0.7722,0.7722,0.7722,0.7722,0.7722"
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"conforming", []string{"-q", q5, path}, 0},
		{"feascheck targets", []string{"-slo", filepath.Join("testdata", "feascheck.json"), path}, 0},
		{"-h", []string{"-h"}, 0},
		{"alerts", []string{"-q", "1.5,1.5,1.5,1.5,1.5", path}, 1},
		{"bad flag", []string{"-nosuch"}, 2},
		{"bad -q", []string{"-q", "0.5,x", path}, 2},
		{"NaN -budget", []string{"-q", q5, "-budget", "NaN", path}, 2},
		{"unreadable stream", []string{"-q", q5, t.TempDir()}, 2},
		{"short target vector", []string{"-q", "0.9,0.9", path}, 2},
	} {
		code, stdout, stderr := runWatch(context.Background(), tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.want, stdout, stderr)
		}
	}
}

// TestShortTargetVector: a replay with fewer targets than the stream has
// links names the first link without a target instead of judging only the
// links it has targets for.
func TestShortTargetVector(t *testing.T) {
	path := recordRun(t, 200)
	err := run(context.Background(), []string{"-q", "0.9,0.9", path}, io.Discard, io.Discard)
	if cli.ExitCode(err) != 2 || err == nil || !strings.Contains(err.Error(), "link 2 ") {
		t.Fatalf("short target vector: %v, want an exit-2 error naming link 2", err)
	}
}

// FuzzSLODoc runs rtmacwatch with a fuzzed -slo document over a short
// recorded stream: it never panics, exits 0, 1 or 2, and a document the
// target parser rejects exits 2.
func FuzzSLODoc(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "feascheck.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(""))
	f.Add([]byte(`{"per_link": [{"link": -1, "required": 0.5}]}`))
	f.Add([]byte(`{"per_link": [{"link": 0, "required": 0.5}, {"link": 0, "required": 0.7}]}`))
	f.Add([]byte(`{"per_link": [{"link": 4000000000, "required": 0.5}]}`))
	events := recordRun(f, 100)
	f.Fuzz(func(t *testing.T, doc []byte) {
		path := filepath.Join(t.TempDir(), "slo.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		code := cli.ExitCode(run(context.Background(), []string{"-check", "-slo", path, events}, io.Discard, io.Discard))
		if code < 0 || code > 2 {
			t.Fatalf("exit %d", code)
		}
		if _, err := targetsFromSLODoc(path); err != nil && code != 2 {
			t.Fatalf("malformed document (%v) exited %d, want 2", err, code)
		}
	})
}
