// Package stats provides the small statistical toolkit the experiment
// harness and the run ledger need: streaming mean/variance accumulation
// (Welford), normal confidence intervals for replication averages, P²
// quantile estimators, and per-point replication aggregates. Each streaming
// partial has one serialized form: its JSON state (AccumulatorState,
// P2State, SketchState, PointState).
package stats

import "math"

// Accumulator computes streaming count, mean and variance using Welford's
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Count returns the number of observations.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean float64
	// Half is the half-width; the interval is [Mean-Half, Mean+Half].
	Half float64
	// N is the number of observations behind the estimate.
	N int64
}

// zFor returns the two-sided normal quantile for the supported confidence
// levels; intermediate levels fall back to the closest supported one. The
// experiment harness averages a handful of replications, where the normal
// approximation is the standard engineering choice.
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.995:
		return 2.807
	case confidence >= 0.99:
		return 2.576
	case confidence >= 0.95:
		return 1.960
	case confidence >= 0.90:
		return 1.645
	default:
		return 1.282 // 80%
	}
}

// Confidence returns the normal-approximation confidence interval of the
// accumulated mean at the given level (e.g. 0.95).
func (a *Accumulator) Confidence(level float64) Interval {
	return Interval{Mean: a.Mean(), Half: zFor(level) * a.StdErr(), N: a.n}
}
