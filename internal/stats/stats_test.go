package stats

import (
	"math"
	"testing"
	"testing/quick"

	"rtmac/internal/sim"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Fatalf("Count = %d", a.Count())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if math.Abs(a.StdErr()-a.StdDev()/math.Sqrt(8)) > 1e-12 {
		t.Fatalf("StdErr inconsistent with StdDev")
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator not zeroed")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Fatal("single observation wrong")
	}
}

func TestConfidenceWidthOrdering(t *testing.T) {
	var a Accumulator
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		a.Add(rng.Float64())
	}
	iv90 := a.Confidence(0.90)
	iv95 := a.Confidence(0.95)
	iv99 := a.Confidence(0.99)
	if !(iv90.Half < iv95.Half && iv95.Half < iv99.Half) {
		t.Fatalf("interval widths not ordered: %v %v %v", iv90.Half, iv95.Half, iv99.Half)
	}
	if iv95.N != 100 {
		t.Fatalf("N = %d", iv95.N)
	}
}

func TestConfidenceCoverage(t *testing.T) {
	// 95% intervals over repeated experiments must cover the true mean
	// roughly 95% of the time.
	rng := sim.NewRNG(2)
	const trueMean = 0.5
	covered := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		var a Accumulator
		for i := 0; i < 30; i++ {
			a.Add(rng.Float64()) // U(0,1), mean 0.5
		}
		if iv := a.Confidence(0.95); math.Abs(iv.Mean-trueMean) <= iv.Half {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.98 {
		t.Fatalf("95%% interval coverage = %v", rate)
	}
}

// Property: Welford matches the naive two-pass computation.
func TestWelfordMatchesNaive(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 1000
			a.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		if math.Abs(a.Mean()-mean) > 1e-9 {
			return false
		}
		if len(xs) < 2 {
			return a.Variance() == 0
		}
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		want := ss / float64(len(xs)-1)
		return math.Abs(a.Variance()-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
