package metrics

import (
	"fmt"
	"math"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
	"rtmac/internal/stats"
)

// Delay measures per-packet delivery delay: the time from a packet's
// arrival (its interval's start) to the end of its successful transmission.
// The paper's headline metric is timely-throughput — whether packets make
// the deadline at all — but a control engineer also cares how early within
// the deadline deliveries land; this collector answers that.
//
// Every delivery feeds fixed-memory P² estimators (p50/p95/p99 and a
// serializable State for run-ledger records), so every replication of every
// sweep point can afford one. A collector built with histogram bins also
// keeps a fixed-resolution histogram over the deadline, which Quantile,
// Histogram and DeadlineShare read.
//
// Attach to a medium before running; only delivered data packets are
// counted (empty frames and losses carry no delivery delay).
type Delay struct {
	interval sim.Time
	sketch   *stats.QuantileSketch
	// buckets is the histogram over delay as a fraction of the deadline, in
	// buckets of width interval/len(buckets); nil without bins.
	buckets []int64
	sum     sim.Time // exact, for Mean
}

// NewDelay creates a collector for a network whose intervals have the given
// duration. bins > 0 also keeps a histogram with that many buckets spanning
// one deadline; bins == 0 keeps only the P² estimators.
func NewDelay(interval sim.Time, bins int) (*Delay, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("metrics: non-positive interval %v", interval)
	}
	if bins < 0 {
		return nil, fmt.Errorf("metrics: negative histogram bins %d", bins)
	}
	sk, err := stats.NewQuantileSketch(0.5, 0.95, 0.99)
	if err != nil {
		return nil, err
	}
	d := &Delay{interval: interval, sketch: sk}
	if bins > 0 {
		d.buckets = make([]int64, bins)
	}
	return d, nil
}

// Attach registers the collector as one of the medium's trace hooks.
func (d *Delay) Attach(med *medium.Medium) {
	med.AddTrace(func(tx medium.Transmission, outcome medium.Outcome) {
		if tx.Empty || outcome != medium.Delivered {
			return
		}
		d.observe(tx.End)
	})
}

// observe records a delivery ending at instant end.
func (d *Delay) observe(end sim.Time) {
	intervalStart := (end - 1) / d.interval * d.interval // end is in (start, start+T]
	delay := end - intervalStart
	d.sketch.Add(float64(delay))
	d.sum += delay
	if d.buckets == nil {
		return
	}
	idx := int(int64(delay-1) * int64(len(d.buckets)) / int64(d.interval))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.buckets) {
		idx = len(d.buckets) - 1
	}
	d.buckets[idx]++
}

// Count returns the number of recorded deliveries.
func (d *Delay) Count() int64 { return d.sketch.Count() }

// Mean returns the average delivery delay.
func (d *Delay) Mean() sim.Time {
	if n := d.Count(); n > 0 {
		return d.sum / sim.Time(n)
	}
	return 0
}

// Max returns the largest observed delay (never exceeds the deadline by
// construction — later packets are dropped, not delivered).
func (d *Delay) Max() sim.Time { return sim.Time(d.sketch.Max()) }

// P50 returns the estimated median delivery delay in microseconds.
func (d *Delay) P50() float64 { return d.sketch.Quantile(0.5) }

// P95 returns the estimated 95th-percentile delay in microseconds.
func (d *Delay) P95() float64 { return d.sketch.Quantile(0.95) }

// P99 returns the estimated 99th-percentile delay in microseconds.
func (d *Delay) P99() float64 { return d.sketch.Quantile(0.99) }

// State exports the quantile sketch's serializable partial, for run-ledger
// records.
func (d *Delay) State() stats.SketchState { return d.sketch.State() }

// Quantile returns the q-quantile (0 < q ≤ 1) of the delay distribution,
// resolved to histogram bucket granularity (each bucket's upper edge).
func (d *Delay) Quantile(q float64) (sim.Time, error) {
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("metrics: quantile %v outside (0, 1]", q)
	}
	if d.buckets == nil {
		return 0, fmt.Errorf("metrics: delay collector keeps no histogram")
	}
	total := d.Count()
	if total == 0 {
		return 0, fmt.Errorf("metrics: no deliveries recorded")
	}
	need := int64(math.Ceil(q * float64(total)))
	acc := int64(0)
	for i, c := range d.buckets {
		acc += c
		if acc >= need {
			return sim.Time(int64(d.interval) * int64(i+1) / int64(len(d.buckets))), nil
		}
	}
	return d.interval, nil
}

// Histogram returns a copy of the bucket counts (nil without a histogram);
// bucket i covers delays in (i, i+1]·interval/len(buckets).
func (d *Delay) Histogram() []int64 { return append([]int64(nil), d.buckets...) }

// DeadlineShare returns the fraction of deliveries with delay at most
// frac·deadline, interpolating bucket edges downward (conservative). It is 0
// without a histogram.
func (d *Delay) DeadlineShare(frac float64) float64 {
	total := d.Count()
	if total == 0 {
		return 0
	}
	edge := int(frac * float64(len(d.buckets)))
	if edge > len(d.buckets) {
		edge = len(d.buckets)
	}
	acc := int64(0)
	for i := 0; i < edge; i++ {
		acc += d.buckets[i]
	}
	return float64(acc) / float64(total)
}
