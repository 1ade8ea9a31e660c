package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmac"
)

// updateGolden regenerates the checked-in golden outputs:
//
//	go test ./cmd/tracequery -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedJourneys runs a small deterministic DBDP simulation and returns its
// journeys JSONL stream. Any change to protocol decisions, RNG derivation or
// the journey codec shows up as a golden diff downstream.
func fixedJourneys(t testing.TB) []byte {
	t.Helper()
	// Deliberately overloaded (12 links at p = 0.5 need ~22 slot-equivalents
	// per ~16-slot interval), so the golden output exercises the miss causes,
	// not just deliveries.
	links := make([]rtmac.Link, 12)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.5,
			Arrivals:      rtmac.MustBernoulliArrivals(0.9),
			DeliveryRatio: 0.8,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     424242,
		Profile:  rtmac.ControlProfile(),
		Links:    links,
		Protocol: rtmac.DBDP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	j, err := s.EnableJourneys(&out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// writeInput stores input in a temp file and returns its path.
func writeInput(t *testing.T, input []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journeys.jsonl")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runQuery executes tracequery's entry point over in-memory input via a temp
// file and returns its stdout.
func runQuery(t *testing.T, input []byte, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(append(args, writeInput(t, input)), &out)
	if code == 0 && err != nil {
		t.Fatalf("exit 0 with error: %v", err)
	}
	return out.String(), code
}

// TestGoldenOutput pins tracequery's exact output for a fixed seed, for the
// summary, per-link and pretty-print views.
func TestGoldenOutput(t *testing.T) {
	input := fixedJourneys(t)
	views := map[string][]string{
		"summary.txt": {},
		"by_link.txt": {"-by-link"},
		"print.txt":   {"-cause", "delivered", "-print", "3"},
	}
	for name, args := range views {
		t.Run(name, func(t *testing.T) {
			got, code := runQuery(t, input, args...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("golden mismatch for %s.\nGot:\n%s\nWant:\n%s\n"+
					"(intentional behaviour change? regenerate with -update)", name, got, want)
			}
		})
	}
}

func TestCheckMode(t *testing.T) {
	input := fixedJourneys(t)
	out, code := runQuery(t, input, "-check")
	if code != 0 {
		t.Fatalf("valid stream rejected (exit %d): %s", code, out)
	}
	if !strings.Contains(out, "all spans valid") {
		t.Fatalf("unexpected check output: %q", out)
	}

	// A malformed line fails with exit 1.
	broken := append([]byte("this is not json\n"), input...)
	if _, code := runQuery(t, broken, "-check"); code != 1 {
		t.Fatalf("malformed line accepted (exit %d)", code)
	}

	// Blank lines are skipped, as rtmac.DecodeJourneys skips them, and
	// errors still name the original line, counting the header and the
	// blank line.
	lines := bytes.SplitAfter(input, []byte("\n"))
	blank := bytes.Join([][]byte{lines[0], lines[1], []byte("\n"), bytes.Join(lines[2:], nil)}, nil)
	js, err := rtmac.DecodeJourneys(bytes.NewReader(blank))
	if err != nil {
		t.Fatal(err)
	}
	if out, code := runQuery(t, blank, "-check"); code != 0 ||
		!strings.Contains(out, fmt.Sprintf("ok: %d journeys", len(js))) {
		t.Fatalf("blank line: exit %d, %q; want %d journeys", code, out, len(js))
	}
	bad := bytes.Join([][]byte{lines[0], lines[1], []byte("\n"), []byte("{\n"), bytes.Join(lines[2:], nil)}, nil)
	if _, err := run([]string{"-check", writeInput(t, bad)}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "line 4:") {
		t.Fatalf("malformed line 4 reported as %v", err)
	}

	// A structurally invalid span (valid JSON, broken invariants) also fails.
	invalid := []byte(`{"seq":0,"k":0,"link":0,"idx":0,"arrived":0,"deadline":100,"cause":"delivered"}` + "\n")
	if _, code := runQuery(t, invalid, "-check"); code != 1 {
		t.Fatal("invalid span accepted by -check")
	}
	if _, err := run([]string{"-check", writeInput(t, append([]byte("\n"), invalid...))}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("invalid span on line 2 reported as %v", err)
	}
}

func TestFilters(t *testing.T) {
	input := fixedJourneys(t)
	all, _ := runQuery(t, input)
	link3, _ := runQuery(t, input, "-link", "3")
	if all == link3 {
		t.Fatal("-link filter had no effect")
	}
	if !strings.HasPrefix(link3, "journeys: ") {
		t.Fatalf("unexpected summary: %q", link3)
	}
	delivered, _ := runQuery(t, input, "-cause", "delivered")
	if !strings.Contains(delivered, "delivery delay (us): p50=") {
		t.Fatalf("no delay percentiles for delivered journeys: %q", delivered)
	}
}

func TestUsageErrors(t *testing.T) {
	input := []byte("{}\n")
	if _, code := runQuery(t, input, "-cause", "gremlins"); code != 2 {
		t.Fatal("unknown cause accepted")
	}
	var out bytes.Buffer
	if code, _ := run([]string{"a.jsonl", "b.jsonl"}, &out); code != 2 {
		t.Fatal("two positional files accepted")
	}
	if code, _ := run([]string{"/nonexistent/path.jsonl"}, &out); code != 2 {
		t.Fatal("missing file accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	out, code := runQuery(t, nil)
	if code != 0 {
		t.Fatalf("empty input rejected (exit %d)", code)
	}
	if !strings.Contains(out, "journeys: 0") {
		t.Fatalf("unexpected output for empty input: %q", out)
	}
	if out2, code := runQuery(t, nil, "-check"); code != 0 || !strings.Contains(out2, "0 journeys") {
		t.Fatalf("empty check failed: exit %d, %q", code, out2)
	}
}

// TestByLinkSparseLinks pins one row per link that occurs: a huge link id
// prints one row, not one per integer below it, and a negative one is
// listed and counted in the all row.
func TestByLinkSparseLinks(t *testing.T) {
	input := []byte(`{"seq":0,"k":0,"link":3000000,"idx":0,"arrived":0,"deadline":100,"cause":"expired-in-queue"}
{"seq":1,"k":0,"link":-4,"idx":0,"arrived":0,"deadline":100,"cause":"expired-in-queue"}
`)
	out, code := runQuery(t, input, "-by-link")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(rows) != 4 || !strings.HasPrefix(rows[1], "-4 ") ||
		!strings.HasPrefix(rows[2], "3000000 ") || !strings.HasPrefix(rows[3], "all           2 ") {
		t.Fatalf("by-link rows:\n%s", out)
	}
}

// FuzzQuery runs every view over arbitrary bytes: tracequery never panics,
// exits 0 or 1, and the per-link view prints at most one row per decoded
// journey plus its header and total rows.
func FuzzQuery(f *testing.F) {
	// The header and first four journeys of a recorded stream keep the seeds
	// small enough for the fuzzer to minimize what it finds.
	lines := bytes.SplitAfter(fixedJourneys(f), []byte("\n"))[:5]
	f.Add(bytes.Join(lines, nil))
	f.Add(bytes.Join([][]byte{lines[0], lines[1], []byte("\n"), bytes.Join(lines[2:], nil)}, nil))
	f.Add([]byte(`{"seq":0,"k":0,"link":3000000,"idx":0,"arrived":0,"deadline":100,"cause":"delivered"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeInput(t, data)
		journeys := -1
		if js, err := rtmac.DecodeJourneys(bytes.NewReader(data)); err == nil {
			journeys = len(js)
		}
		for _, args := range [][]string{nil, {"-by-link"}, {"-check"}} {
			var out bytes.Buffer
			code, _ := run(append(args, path), &out)
			if code != 0 && code != 1 {
				t.Fatalf("%v: exit %d", args, code)
			}
			if len(args) == 1 && args[0] == "-by-link" && code == 0 {
				if n := strings.Count(out.String(), "\n"); n > journeys+2 {
					t.Fatalf("-by-link printed %d lines for %d journeys", n, journeys)
				}
			}
		}
	})
}
