// Command perfbench is the repository benchmark. It runs one named workload
// of the rtmac simulator for a fixed host time, checks the simulated outputs
// against pinned digests, and prints every metric by name with its unit; the
// last line of standard output is one JSON object for machines:
//
//	bash perfbench/run.sh --workload kernel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the workload. With
// --trace 1 it runs the traced layer suite instead and reports the per-layer
// metrics (see README.md in this directory). Each run also writes a record
// with a host fingerprint and every raw sample under .bench_build/records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the reference digests are pinned at.
const defaultSeed = 1

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one invocation reports.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	Metrics   []metric
	// Info holds numbers printed and recorded but not part of the result
	// line: they move too much with the host's other tenants to gate on.
	Info []metric
	// Samples holds the raw per-run samples behind the reported medians.
	Samples map[string][]float64
}

func (o *outcome) add(name string, value float64, unit string) {
	o.Metrics = append(o.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (o *outcome) info(name string, value float64, unit string) {
	o.Info = append(o.Info, metric{Name: name, Value: value, Unit: unit})
}

// check counts one attempted unit, and a failure with its reason when ok is
// false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) sample(name string, values ...float64) {
	if o.Samples == nil {
		o.Samples = make(map[string][]float64)
	}
	o.Samples[name] = append(o.Samples[name], values...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name         = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed         = fs.Uint64("seed", defaultSeed, "workload seed; the reference digests are pinned at 1")
		seconds      = fs.Float64("seconds", 10, "host seconds the timed phase runs for")
		trace        = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced layer suite, per-layer metrics")
		printDigests = fs.Bool("print-digests", false, "print the digests of every workload at -seed and exit")
		outDir       = fs.String("records", filepath.Join(".bench_build", "records"), "directory for run records and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printDigests {
		digests, err := currentDigests(*seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, w := range workloadNames {
			fmt.Fprintf(stdout, "%q: %q,\n", w, digests[w])
		}
		return 0
	}
	if !knownWorkload(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	started := time.Now()
	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		out, err = layerSuite(*name, *seed, filepath.Join(*outDir, "spans"))
	} else {
		out, err = timedRun(*name, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.Problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	rec := newRecord(*name, *seed, *trace, *seconds, started, out)
	path, err := rec.write(*outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stdout, rec, path)
	line, err := resultLine(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printTable writes the human-readable report: fingerprint, every metric by
// name with its unit, and the correctness tally.
func printTable(w io.Writer, rec *record, path string) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d | %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s src=%s\n",
		rec.Workload, rec.Seed, rec.Trace, h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPU, h.Commit, h.SourceSHA256)
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rec.Info {
		fmt.Fprintf(w, "  %-40s %16.6g %s (not gated)\n", m.Name, m.Value, m.Unit)
	}
	frac := 0.0
	if rec.Attempted > 0 {
		frac = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %16.6g %s (%d of %d)\n", "failed_frac", frac, "ratio", rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "record: %s\n", path)
}

// resultLine renders the final machine-readable line.
func resultLine(out *outcome) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.Metrics))
	for _, m := range out.Metrics {
		if _, dup := metrics[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Failed == 0 && out.Attempted > 0, out.Attempted, out.Failed, metrics})
}

// median returns the middle of xs (mean of the two middles for even length).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
