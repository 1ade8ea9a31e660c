package rtmac

import (
	"fmt"

	"rtmac/internal/metrics"
	"rtmac/internal/stats"
)

// delayBins is the resolution of the delivery-delay histogram: buckets per
// deadline.
const delayBins = 200

// Delay exposes per-packet delivery-delay statistics for a simulation: how
// early within the deadline successful deliveries land. Only delivered data
// packets are counted. It carries both a histogram at deadline/200
// resolution (Quantile, DeadlineShare, Histogram) and streaming P²
// estimators (P50/P95/P99) whose serializable partial (State) is what
// run-ledger records persist.
type Delay struct {
	d *metrics.Delay
}

// EnableDelay starts collecting delivery-delay statistics. Call before Run.
// It can coexist with EnableTrace.
func (s *Simulation) EnableDelay() (*Delay, error) {
	d, err := metrics.NewDelay(s.profileInterval, delayBins)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	d.Attach(s.nw.Medium())
	return &Delay{d: d}, nil
}

// Count returns how many deliveries were observed.
func (d *Delay) Count() int64 { return d.d.Count() }

// Mean returns the average delivery delay.
func (d *Delay) Mean() Time { return d.d.Mean() }

// Max returns the largest observed delay (bounded by the deadline).
func (d *Delay) Max() Time { return d.d.Max() }

// Quantile returns the q-quantile of the delay distribution, at histogram
// resolution.
func (d *Delay) Quantile(q float64) (Time, error) {
	v, err := d.d.Quantile(q)
	if err != nil {
		return 0, fmt.Errorf("rtmac: %w", err)
	}
	return v, nil
}

// DeadlineShare returns the fraction of deliveries completed within
// frac·deadline of their arrival.
func (d *Delay) DeadlineShare(frac float64) float64 { return d.d.DeadlineShare(frac) }

// Histogram returns the raw bucket counts; bucket i covers delays within
// (i, i+1]·deadline/200.
func (d *Delay) Histogram() []int64 { return d.d.Histogram() }

// P50 returns the streaming estimate of the median delivery delay in
// microseconds.
func (d *Delay) P50() float64 { return d.d.P50() }

// P95 returns the streaming estimate of the 95th-percentile delay in
// microseconds.
func (d *Delay) P95() float64 { return d.d.P95() }

// P99 returns the streaming estimate of the 99th-percentile delay in
// microseconds.
func (d *Delay) P99() float64 { return d.d.P99() }

// State exports the streaming estimators' serializable partial for ledger
// records.
func (d *Delay) State() stats.SketchState { return d.d.State() }
