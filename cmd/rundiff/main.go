// Command rundiff explains the difference between two recorded runs: it
// aligns two streams and reports the first divergent event with context,
// plus paired metric attribution for journey streams. It is the enforcement
// tool behind the determinism contracts — where `diff` says "files differ",
// rundiff says "interval 617, link 2, kind interval, field arrivals 3 -> 4".
//
// Usage:
//
//	rundiff [flags] A B
//
//	-mode auto|events|journeys|csv   stream type (auto probes the header/extension)
//	-window N                        context lines per side (default 5)
//	-check-equal                     terse one-line verdict, for scripts and tests
//	-json                            machine-readable report
//
// Exit codes: 0 streams equal, 1 comparison found a difference, 2 usage or
// I/O error. Scripts can therefore distinguish "genuinely different" from
// "could not compare".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rtmac/internal/cli"
	"rtmac/internal/rundiff"
	"rtmac/internal/telemetry"
)

func main() { cli.Main("rundiff", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rundiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode       = fs.String("mode", "auto", "stream type: auto, events, journeys or csv")
		window     = fs.Int("window", rundiff.DefaultWindow, "context lines kept per side at the divergence")
		checkEqual = fs.Bool("check-equal", false, "expect equality: print a one-line verdict only")
		asJSON     = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two input files, got %d", fs.NArg())
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	m := *mode
	if m == "auto" {
		var err error
		if m, err = detectMode(pathA); err != nil {
			return err
		}
	}
	fa, err := os.Open(pathA)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return err
	}
	defer fb.Close()
	opts := rundiff.Options{Window: *window}

	equal := false
	var report any
	switch m {
	case "events":
		d, err := rundiff.DiffEvents(fa, fb, opts)
		if err != nil {
			return err
		}
		equal, report = d.Equal, d
		if !*asJSON {
			if *checkEqual && !d.Equal {
				div := d.Divergence
				fmt.Fprintf(stdout, "not equal: first divergence at event %d: k=%d link=%d kind=%s\n",
					div.Index, div.K(), div.Link(), div.Kind())
			} else {
				rundiff.WriteEventDiff(stdout, d)
			}
		}
	case "journeys":
		d, err := rundiff.DiffJourneys(fa, fb, opts)
		if err != nil {
			return err
		}
		equal, report = d.Equal, d
		if !*asJSON {
			if *checkEqual && !d.Equal {
				fmt.Fprintf(stdout, "not equal: %d matched, %d only in a, %d only in b",
					d.Matched, d.OnlyA, d.OnlyB)
				if d.First != nil {
					fmt.Fprintf(stdout, "; first mismatch seq %d (k=%d link=%d): %s",
						d.First.Seq, d.First.A.K, d.First.A.Link, strings.Join(d.First.Diffs, ", "))
				}
				fmt.Fprintln(stdout)
			} else {
				rundiff.WriteJourneyDiff(stdout, d)
			}
		}
	case "csv":
		d, err := rundiff.DiffCSV(fa, fb)
		if err != nil {
			return err
		}
		equal, report = d.Equal, d
		if !*asJSON {
			if *checkEqual && !d.Equal {
				fmt.Fprintf(stdout, "not equal: first divergence at row %d col %d\n", d.Row, d.Col)
			} else {
				rundiff.WriteCSVDiff(stdout, d)
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q (want auto, events, journeys or csv)", m)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if !equal {
		return cli.Found
	}
	return nil
}

// detectMode probes a file to classify it: a schema header names the stream
// outright; otherwise the extension and first non-blank line decide.
func detectMode(path string) (string, error) {
	if strings.HasSuffix(path, ".csv") {
		return "csv", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, 512)
	n, _ := io.ReadFull(f, buf)
	// Leading whitespace and blank lines are skipped, as the readers do.
	line := bytes.TrimLeft(buf[:n], " \t\r\n")
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	if h, ok := telemetry.ParseHeader(line); ok {
		switch h.Schema {
		case telemetry.EventStreamSchema:
			return "events", nil
		case telemetry.JourneyStreamSchema:
			return "journeys", nil
		}
		return "", fmt.Errorf("%s: unknown stream schema %q", path, h.Schema)
	}
	// Headerless legacy: journeys carry "seq" and "cause"; events carry
	// "kind". Fall back to events when neither matches.
	s := string(line)
	if strings.Contains(s, `"cause"`) && strings.Contains(s, `"seq"`) {
		return "journeys", nil
	}
	if len(s) > 0 && s[0] != '{' {
		return "csv", nil
	}
	return "events", nil
}
