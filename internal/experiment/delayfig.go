package experiment

import (
	"fmt"

	"rtmac/internal/metrics"
	"rtmac/internal/phy"
)

// ExtraDelay measures what the deficiency sweeps do not show: the delivery
// LATENCY distribution. The paper's introduction motivates per-packet
// deadlines with millisecond-scale control loops; this figure reports the
// median and 99th-percentile delivery delay (as a fraction of the deadline)
// for each policy across the video network's load sweep.
func ExtraDelay() Figure { return delayFigure{} }

type delayFigure struct{}

func (delayFigure) ID() string { return "extra-delay" }

func (delayFigure) Title() string {
	return "Delivery-delay percentiles (fraction of deadline) vs load, video network"
}

func (f delayFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	xs := sweepRange(0.40, 0.60, 0.05)
	specs := paperSpecs()
	// One run per (protocol, load), each keeping a 200-bin delay histogram;
	// quantiles are read after the pool drains.
	hists := make([]*metrics.Delay, len(specs)*len(xs))
	var jobs []job
	for si, spec := range specs {
		for xi, x := range xs {
			sc, err := videoScenario(x, videoRho, opts.scaled(videoIntervals))
			if err != nil {
				return nil, fmt.Errorf("experiment extra-delay: %w", err)
			}
			sc.delayBins = 200
			slot := si*len(xs) + xi
			jobs = append(jobs, job{key: fmt.Sprintf("%g/%s", x, spec.Label), spec: spec, sc: sc,
				seed: opts.BaseSeed, reduce: func(_ uint64, out runOut) { hists[slot] = out.delay }})
		}
	}
	if err := runJobs(figureMeta{id: f.ID(), title: f.Title()}, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment extra-delay: %w", err)
	}
	out := &Result{
		ID:     "extra-delay",
		Title:  f.Title(),
		XLabel: "alpha*",
		YLabel: "delay / deadline",
	}
	deadline := float64(phy.Video().Interval)
	for si, spec := range specs {
		p50 := Series{Label: spec.Label + " p50"}
		p99 := Series{Label: spec.Label + " p99"}
		for xi, x := range xs {
			hist := hists[si*len(xs)+xi]
			q50, err := hist.Quantile(0.5)
			if err != nil {
				return nil, err
			}
			q99, err := hist.Quantile(0.99)
			if err != nil {
				return nil, err
			}
			p50.X = append(p50.X, x)
			p50.Y = append(p50.Y, float64(q50)/deadline)
			p99.X = append(p99.X, x)
			p99.Y = append(p99.Y, float64(q99)/deadline)
		}
		out.Series = append(out.Series, p50, p99)
	}
	return out, nil
}
