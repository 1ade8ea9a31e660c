package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rtmac/internal/experiment"
	"rtmac/internal/telemetry"
)

// sweepFigures are the figures `figures` regenerates by default.
var sweepFigures = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

const (
	// sweepScale and sweepSeeds size one sweep pass (figures -scale -seeds).
	sweepScale = 0.025
	sweepSeeds = 2
	// sweepWorkers is the experiment worker pool size.
	sweepWorkers = 2
	// sweepWarmupScale sizes the fig3 run set-up does.
	sweepWarmupScale = 0.01
)

// sweepOptions are what `figures -quiet -scale sweepScale -seeds sweepSeeds`
// passes to every figure (strict monitor on), with the seed schedule shifted
// by the workload seed: seed 1 is the figures default.
func sweepOptions(seed uint64) experiment.RunOptions {
	return experiment.RunOptions{
		Seeds:         sweepSeeds,
		IntervalScale: sweepScale,
		Workers:       sweepWorkers,
		Monitor:       true,
		BaseSeed:      0x5eed + seed - 1,
	}
}

// sweepWorkload regenerates fig3–fig10 once per pass; a figure is a chunk.
type sweepWorkload struct {
	seed      uint64
	figs      []experiment.Figure
	intervals int64
}

func resolveFigures() ([]experiment.Figure, error) {
	figs := make([]experiment.Figure, 0, len(sweepFigures))
	for _, id := range sweepFigures {
		f, err := experiment.ByID(id)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

func (w *sweepWorkload) setup() error {
	var err error
	if w.figs, err = resolveFigures(); err != nil {
		return err
	}
	opts := sweepOptions(w.seed)
	opts.IntervalScale, opts.Seeds = sweepWarmupScale, 1
	_, err = w.figs[0].Run(opts)
	return err
}

// census runs one pass with a shared registry to count the intervals a pass
// simulates; the registry does not change any result.
func (w *sweepWorkload) census() (string, error) {
	reg := telemetry.NewRegistry()
	opts := sweepOptions(w.seed)
	opts.Telemetry = reg
	d := &crcWriter{}
	for _, f := range w.figs {
		res, err := f.Run(opts)
		if err != nil {
			return "", fmt.Errorf("%s: %w", f.ID(), err)
		}
		digestResult(d, res)
	}
	w.intervals = reg.Counter("rtmac_intervals_total", "").Value()
	return d.String(), nil
}

func (w *sweepWorkload) prepare() error { return nil }

func (w *sweepWorkload) pass(c *clock) passOut {
	opts := sweepOptions(w.seed)
	d := &crcWriter{}
	for _, f := range w.figs {
		res, err := f.Run(opts)
		if err != nil {
			return passOut{err: fmt.Errorf("%s: %w", f.ID(), err)}
		}
		c.lap()
		digestResult(d, res)
	}
	return passOut{digest: d.String(), units: len(w.figs), intervals: w.intervals}
}

// digestResult writes every number of a figure's series.
func digestResult(w io.Writer, r *experiment.Result) {
	fmt.Fprintf(w, "%s %q %q %q\n", r.ID, r.Title, r.XLabel, r.YLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, "series %q\n", s.Label)
		for _, col := range [][]float64{s.X, s.Y, s.Err, s.CI, s.DelayP50, s.DelayP95, s.DelayP99} {
			for _, v := range col {
				fmt.Fprint(w, exact(v), " ")
			}
			fmt.Fprintln(w)
		}
	}
}

// jobClock is an experiment.ProgressTracker recording when each figure
// starts and when each of its jobs completes.
type jobClock struct {
	mu    sync.Mutex
	start map[string]time.Time
	done  map[string][]time.Time
}

func newJobClock() *jobClock {
	return &jobClock{start: map[string]time.Time{}, done: map[string][]time.Time{}}
}

func (j *jobClock) FigureStarted(id, _ string, _ int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.start[id] = time.Now()
}

func (j *jobClock) JobCompleted(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[id] = append(j.done[id], time.Now())
}

func (j *jobClock) FigureFinished(string) {}

// idle returns, for one figure, the worker-seconds left idle after the
// first worker ran out of jobs, and the worker-seconds the figure had.
// With w workers, once the last w jobs are running each completion frees a
// worker that stays idle until the figure's last completion.
func (j *jobClock) idle(id string, workers int) (idle, total float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := j.done[id]
	if len(done) == 0 {
		return 0, 0
	}
	last := done[len(done)-1]
	total = float64(workers) * last.Sub(j.start[id]).Seconds()
	for i := max(0, len(done)-workers); i < len(done)-1; i++ {
		idle += last.Sub(done[i]).Seconds()
	}
	return idle, total
}
