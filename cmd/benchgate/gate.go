package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rtmac/internal/ledger"
	"rtmac/internal/stats"
)

const (
	// threshold is how much worse the change's median of a gated metric
	// must be, relative to the baseline's, before a significant difference
	// fails the gate.
	threshold = 0.10
	// confidence is the Welch test's two-sided level.
	confidence = 0.95
)

// gated names the metrics that decide the gate: the kernel's end-to-end
// time metrics.
var gated = map[string]bool{"intervals_per_s": true, "wall_s": true}

// result is perfbench's machine-readable last line of stdout.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult decodes the last non-empty line of a perfbench run's stdout.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("perfbench result line: %w", err)
	}
	if len(r.Metrics) == 0 {
		return r, fmt.Errorf("perfbench result line has no metrics")
	}
	return r, nil
}

// metric is one end-to-end metric the gate compares.
type metric struct {
	name, better string
	gated        bool
}

// loadMetrics reads the end-to-end metrics and their directions from the
// repository's BENCHMARK.json, in declaration order.
func loadMetrics(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []metric
	found := 0
	for _, m := range spec.EndToEnd {
		out = append(out, metric{name: m.Name, better: m.Better, gated: gated[m.Name]})
		if gated[m.Name] {
			found++
		}
	}
	if found != len(gated) {
		return nil, fmt.Errorf("%s declares %d of the %d gated metrics", path, found, len(gated))
	}
	return out, nil
}

// decide compares the two sides with the ledger sentinel, prints its table
// and one verdict per gated metric, and reports whether the change fails.
// A baseline that reports correct: false is an error: there is nothing
// sound to compare against.
func decide(w io.Writer, base, change []result, metrics []metric) (regressed bool, err error) {
	for i, r := range base {
		if !r.Correct {
			return false, fmt.Errorf("baseline run %d reported correct: false", i+1)
		}
	}
	oldRec, err := sideRecord(base, metrics)
	if err != nil {
		return false, fmt.Errorf("baseline: %w", err)
	}
	newRec, err := sideRecord(change, metrics)
	if err != nil {
		return false, fmt.Errorf("change: %w", err)
	}
	rep, err := ledger.Diff(oldRec, newRec, ledger.DiffOptions{Confidence: confidence, RelThreshold: threshold})
	if err != nil {
		return false, err
	}
	rep.WriteText(w)
	verdicts := make(map[string]ledger.PointVerdict, len(rep.Points))
	for _, v := range rep.Points {
		verdicts[v.Metric] = v
	}
	for _, m := range metrics {
		if !m.gated {
			continue
		}
		v, ok := verdicts[m.name]
		if !ok {
			return false, fmt.Errorf("gated metric %s missing from a side", m.name)
		}
		oldMed, newMed := median(base, m.name), median(change, m.name)
		worse := (newMed - oldMed) / oldMed
		if m.better == ledger.BetterHigher {
			worse = -worse
		}
		verdict := "ok"
		if v.Regression && worse > threshold {
			verdict = fmt.Sprintf("REGRESSION: significant and median %.1f%% worse (> %.0f%%)", worse*100, threshold*100)
			regressed = true
		}
		fmt.Fprintf(w, "gate %-16s median %12.6g -> %12.6g  %s\n", m.name, oldMed, newMed, verdict)
	}
	for i, r := range change {
		if !r.Correct {
			fmt.Fprintf(w, "gate: change run %d reported correct: false\n", i+1)
			regressed = true
		}
	}
	return regressed, nil
}

// sideRecord folds one side's runs into a ledger record: one point per
// metric, one replication per run. A metric every run lacks is left out
// (the sentinel reports it as present on one side only).
func sideRecord(runs []result, metrics []metric) (*ledger.Record, error) {
	rec := ledger.NewRecorder()
	for _, m := range metrics {
		var agg stats.PointAggregate
		for i, r := range runs {
			if v, ok := r.Metrics[m.name]; ok {
				agg.Add(stats.Replication{Seed: uint64(i + 1), Value: v.Value})
			}
		}
		switch agg.Count() {
		case 0:
			continue
		case len(runs):
		default:
			return nil, fmt.Errorf("metric %s reported by %d of %d runs", m.name, agg.Count(), len(runs))
		}
		rec.RecordAggregate("perfbench", "kernel", 0, m.name, m.better, &agg)
	}
	return rec.Finalize("perfbench", "perfbench kernel", nil)
}

// median returns the median of one metric across runs.
func median(runs []result, name string) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
