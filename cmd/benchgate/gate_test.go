package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// capturedRun is the tail of a real `perfbench/run.sh --workload kernel`
// stdout: the human-readable table, then the JSON result line.
const capturedRun = `perfbench kernel seed=1 trace=0 | go1.24.0 GOMAXPROCS=2 nproc=2 cpu="Intel(R) Xeon(R) Processor" commit=aace5d5c27f2d53d92990dbbc4dbf76bd4c4d53a src=8168b61e
  intervals_per_s                                    290997 1/s
  wall_s                                          0.0687293 s
  failed_frac                                             0 ratio (0 of 256)
record: .bench_build/records/kernel-seed1-trace0-20261017T093810.056322648.json
{"correct":true,"attempted":256,"failed":0,"metrics":{"allocs_per_interval":{"value":0.1267765625,"unit":"count"},"bytes_per_interval":{"value":7.1701875,"unit":"B"},"intervals_per_s":{"value":290996.9063682389,"unit":"1/s"},"peak_heap_mb":{"value":0.23159027099609375,"unit":"MB"},"setup_s":{"value":0.022367461,"unit":"s"},"wall_s":{"value":0.06872925299999999,"unit":"s"}}}
`

func TestParseCapturedResult(t *testing.T) {
	r, err := parseResult([]byte(capturedRun))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || len(r.Metrics) != 6 || r.Metrics["wall_s"].Value != 0.06872925299999999 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseResult([]byte("perfbench: build failed\n")); err == nil {
		t.Fatal("a run without a result line parsed")
	}
}

// side builds five synthetic runs from wall-time samples: wall_s as given,
// intervals_per_s derived from it, and the ungated metrics constant.
func side(t *testing.T, correct bool, wall ...float64) []result {
	t.Helper()
	var out []result
	for _, w := range wall {
		line, err := json.Marshal(map[string]any{
			"correct": correct,
			"metrics": map[string]map[string]float64{
				"wall_s":              {"value": w},
				"intervals_per_s":     {"value": 20000 / w},
				"allocs_per_interval": {"value": 0.127},
				"bytes_per_interval":  {"value": 7.17},
				"peak_heap_mb":        {"value": 0.23},
				"setup_s":             {"value": 0.022},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := parseResult(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestDecide(t *testing.T) {
	metrics, err := loadMetrics("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spread2 := []float64{0.068, 0.0694, 0.0666, 0.0687, 0.0673} // ~2% spread
	tight := []float64{0.0680, 0.0683, 0.0677, 0.0681, 0.0679}  // ~0.3% spread
	wide := []float64{0.04, 0.068, 0.096, 0.054, 0.082}         // ~40% spread
	for _, tc := range []struct {
		name         string
		base, change []result
		regressed    bool
		// sentinel, when set, must appear in the sentinel's table.
		sentinel string
	}{
		{"identical samples pass", side(t, true, spread2...), side(t, true, spread2...), false, ""},
		{"+15% with 2% spread fails", side(t, true, spread2...), side(t, true, scale(spread2, 1.15)...), true, ""},
		// Significant to the sentinel, so it passes on the median threshold.
		{"+5% significant passes", side(t, true, tight...), side(t, true, scale(tight, 1.05)...), false, "REGRESSION: Welch"},
		{"+15% not significant passes", side(t, true, wide...), side(t, true, scale(wide, 1.15)...), false, ""},
		{"-15% improvement passes", side(t, true, spread2...), side(t, true, scale(spread2, 0.85)...), false, "improved"},
		{"change correct: false fails", side(t, true, spread2...), side(t, false, spread2...), true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			regressed, err := decide(&out, tc.base, tc.change, metrics)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.regressed {
				t.Fatalf("regressed = %t, want %t\n%s", regressed, tc.regressed, out.String())
			}
			for _, want := range []string{"gate wall_s", "gate intervals_per_s", tc.sentinel} {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
	t.Run("baseline correct: false is an error", func(t *testing.T) {
		var out bytes.Buffer
		if _, err := decide(&out, side(t, false, spread2...), side(t, true, spread2...), metrics); err == nil {
			t.Fatal("baseline with correct: false accepted")
		}
	})
}
