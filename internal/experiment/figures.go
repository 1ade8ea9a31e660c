package experiment

import (
	"fmt"
	"sort"

	"rtmac/internal/arrival"
	"rtmac/internal/ledger"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
	"rtmac/internal/protocol"
	"rtmac/internal/stats"
)

// Paper constants for the two evaluation scenarios (Section VI).
const (
	videoLinks     = 20
	videoIntervals = 5000
	videoP         = 0.7
	videoRho       = 0.9

	controlLinks     = 10
	controlIntervals = 20000
	controlP         = 0.7
	controlRho       = 0.99
)

// videoScenario builds the symmetric video network of §VI-A: bursty-uniform
// arrivals on {1..6} with probability alpha (λ = 3.5α), deadline 20 ms,
// 330 µs exchanges.
func videoScenario(alpha, rho float64, intervals int) (scenario, error) {
	proc, err := arrival.PaperVideo(alpha)
	if err != nil {
		return scenario{}, err
	}
	av, err := arrival.Uniform(videoLinks, proc)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Video(),
		successProb: uniformVec(videoLinks, videoP),
		arrivals:    av,
		required:    uniformVec(videoLinks, rho*proc.Mean()),
		intervals:   intervals,
	}, nil
}

// asymmetricScenario builds the two-group video network of §VI-A: group 1
// (links 0..9) has p = 0.5 and α = 0.5·α*; group 2 (links 10..19) has
// p = 0.8 and α = α*.
func asymmetricScenario(alphaStar, rho float64, intervals int) (scenario, error) {
	procs := make([]arrival.Process, videoLinks)
	probs := make([]float64, videoLinks)
	required := make([]float64, videoLinks)
	for link := 0; link < videoLinks; link++ {
		alpha := alphaStar
		p := 0.8
		if link < videoLinks/2 {
			alpha = 0.5 * alphaStar
			p = 0.5
		}
		proc, err := arrival.PaperVideo(alpha)
		if err != nil {
			return scenario{}, err
		}
		procs[link] = proc
		probs[link] = p
		required[link] = rho * proc.Mean()
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Video(),
		successProb: probs,
		arrivals:    av,
		required:    required,
		intervals:   intervals,
	}, nil
}

// controlScenario builds the ultra-low-latency network of §VI-B: Bernoulli
// arrivals with mean lambda, deadline 2 ms, 120 µs exchanges.
func controlScenario(lambda, rho float64, intervals int) (scenario, error) {
	proc, err := arrival.NewBernoulli(lambda)
	if err != nil {
		return scenario{}, err
	}
	av, err := arrival.Uniform(controlLinks, proc)
	if err != nil {
		return scenario{}, err
	}
	return scenario{
		profile:     phy.Control(),
		successProb: uniformVec(controlLinks, controlP),
		arrivals:    av,
		required:    uniformVec(controlLinks, rho*lambda),
		intervals:   intervals,
	}, nil
}

// asymmetricGroups names the two link groups of Figs. 7–8.
func asymmetricGroups() map[string][]int {
	g1 := make([]int, videoLinks/2)
	g2 := make([]int, videoLinks/2)
	for i := range g1 {
		g1[i] = i
		g2[i] = videoLinks/2 + i
	}
	return map[string][]int{"group1": g1, "group2": g2}
}

// sweepFigure is a deficiency-vs-x figure fully described by data: one
// curve per protocol (or per protocol and link group), each point
// aggregated over opts.Seeds replications into mean, standard error, 95%
// confidence half-width and delivery-delay quantiles. Replications are
// seed-tagged, so the summary is independent of worker completion order.
type sweepFigure struct {
	id, title, xlabel string
	xs                []float64
	// build returns a fresh scenario for every job, so stateful arrival
	// processes (Markov-modulated regimes) are never shared between jobs.
	build  func(x float64, opts RunOptions) (scenario, error)
	groups map[string][]int // nil for total deficiency
	specs  []protocol.Spec
	// replicationSeeds keys each job's seed on its replication index alone —
	// the historical schedule of the beyond-paper sweeps — instead of
	// folding the job index in.
	replicationSeeds bool
}

func (f *sweepFigure) ID() string    { return f.id }
func (f *sweepFigure) Title() string { return f.title }

func (f *sweepFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	series, err := f.sweep(opts)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", f.id, err)
	}
	ylabel := "total timely-throughput deficiency"
	if f.groups != nil {
		ylabel = "group-wide timely-throughput deficiency"
	}
	return &Result{ID: f.id, Title: f.title, XLabel: f.xlabel, YLabel: ylabel, Series: series}, nil
}

// curve splits one run's deficiency into a figure curve: the total, or one
// link group's share. The delay quantiles are network-wide, so all group
// curves of one protocol share them.
type curve struct {
	suffix string
	value  func(col *metrics.Collector) float64
}

func (f *sweepFigure) curves() []curve {
	if f.groups == nil {
		return []curve{{value: (*metrics.Collector).TotalDeficiency}}
	}
	names := make([]string, 0, len(f.groups))
	for g := range f.groups {
		names = append(names, g)
	}
	sort.Strings(names)
	out := make([]curve, len(names))
	for i, g := range names {
		links := f.groups[g]
		out[i] = curve{suffix: " " + g, value: func(col *metrics.Collector) float64 {
			return col.GroupDeficiency(links)
		}}
	}
	return out
}

func (f *sweepFigure) sweep(opts RunOptions) ([]Series, error) {
	curves := f.curves()
	aggregates := make(map[string][]*stats.PointAggregate)
	var jobs []job
	for _, x := range f.xs {
		for _, spec := range f.specs {
			key := fmt.Sprintf("%g/%s", x, spec.Label)
			aggs := make([]*stats.PointAggregate, len(curves))
			for i := range aggs {
				aggs[i] = &stats.PointAggregate{}
			}
			aggregates[key] = aggs
			for s := 0; s < opts.Seeds; s++ {
				sc, err := f.build(x, opts)
				if err != nil {
					return nil, err
				}
				seed := opts.seedFor(s, len(jobs))
				if f.replicationSeeds {
					seed = opts.seedFor(s, 0)
				}
				jobs = append(jobs, job{key: key, spec: spec, sc: sc, seed: seed,
					reduce: func(seed uint64, out runOut) {
						for i, c := range curves {
							aggs[i].Add(out.replication(seed, c.value(out.col)))
						}
					}})
			}
		}
	}
	if err := runJobs(figureMeta{id: f.id, title: f.title}, jobs, opts); err != nil {
		return nil, err
	}
	var series []Series
	for _, spec := range f.specs {
		for i, c := range curves {
			s := Series{Label: spec.Label + c.suffix}
			for _, x := range f.xs {
				a := aggregates[fmt.Sprintf("%g/%s", x, spec.Label)][i]
				if a.Count() == 0 {
					return nil, fmt.Errorf("experiment: no completed replications for %s at %g", spec.Label, x)
				}
				s.addSummary(x, a.Summary(ciLevel))
				opts.Recorder.RecordAggregate(f.id, s.Label, x, "deficiency", ledger.BetterLower, a)
			}
			series = append(series, s)
		}
	}
	return series, nil
}

// Fig3 sweeps the symmetric video network's burst probability α* at a fixed
// 90 % delivery ratio.
func Fig3() Figure {
	return &sweepFigure{
		id:     "fig3",
		title:  "Symmetric video network, 90% delivery ratio: deficiency vs arrival rate",
		xlabel: "alpha*",
		xs:     sweepRange(0.40, 0.70, 0.05),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}

// Fig4 fixes α* = 0.55 and sweeps the required delivery ratio.
func Fig4() Figure {
	return &sweepFigure{
		id:     "fig4",
		title:  "Symmetric video network, alpha*=0.55: deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.80, 1.00, 0.04),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(0.55, x, opts.scaled(videoIntervals))
		},
	}
}

// Fig7 sweeps α* on the asymmetric two-group network at 90 % delivery ratio,
// reporting group-wide deficiencies.
func Fig7() Figure {
	return &sweepFigure{
		id:     "fig7",
		title:  "Asymmetric network, 90% delivery ratio: group deficiency vs arrival rate",
		xlabel: "alpha*",
		xs:     sweepRange(0.50, 0.80, 0.05),
		groups: asymmetricGroups(),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}

// Fig8 fixes α* = 0.7 on the asymmetric network and sweeps delivery ratio.
func Fig8() Figure {
	return &sweepFigure{
		id:     "fig8",
		title:  "Asymmetric network, alpha*=0.7: group deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.80, 1.00, 0.04),
		groups: asymmetricGroups(),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(0.7, x, opts.scaled(videoIntervals))
		},
	}
}

// Fig9 sweeps the control network's Bernoulli arrival rate λ* at a fixed
// 99 % delivery ratio.
func Fig9() Figure {
	return &sweepFigure{
		id:     "fig9",
		title:  "Control network, 99% delivery ratio: deficiency vs arrival rate",
		xlabel: "lambda*",
		xs:     sweepRange(0.60, 0.95, 0.05),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return controlScenario(x, controlRho, opts.scaled(controlIntervals))
		},
	}
}

// Fig10 fixes λ* = 0.78 on the control network and sweeps delivery ratio.
func Fig10() Figure {
	return &sweepFigure{
		id:     "fig10",
		title:  "Control network, lambda*=0.78: deficiency vs delivery ratio",
		xlabel: "delivery ratio",
		xs:     sweepRange(0.90, 1.00, 0.02),
		specs:  paperSpecs(),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return controlScenario(0.78, x, opts.scaled(controlIntervals))
		},
	}
}

// convergenceFigure tracks the windowed timely-throughput of the link that
// holds the lowest priority at time zero, one run per protocol on the video
// network at α* = 0.55 and 93 % delivery ratio.
type convergenceFigure struct {
	id, title string
	specs     []protocol.Spec
	ylabel    func(watched int, target float64) string
}

// Fig5 returns the convergence-time comparison of DB-DP and LDF.
func Fig5() Figure {
	return &convergenceFigure{
		id:    "fig5",
		title: "Convergence: throughput of the initially lowest-priority link (alpha*=0.55, 93% ratio)",
		specs: paperSpecs()[:2],
		ylabel: func(watched int, target float64) string {
			return fmt.Sprintf("timely-throughput of link %d over time (target %.3f)", watched, target)
		},
	}
}

func (f *convergenceFigure) ID() string    { return f.id }
func (f *convergenceFigure) Title() string { return f.title }

func (f *convergenceFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	const rho = 0.93
	intervals := opts.scaled(videoIntervals)
	sc, err := videoScenario(0.55, rho, intervals)
	if err != nil {
		return nil, err
	}
	// 25 checkpoints: wide enough windows that the windowed throughput of a
	// single link is not drowned in arrival noise.
	sc.seriesEvery = max(intervals/25, 1)
	// With identity initial priorities and link-ID tie-breaking in LDF, the
	// initially worst-off link is the last one in both policies.
	watched := videoLinks - 1
	series := make([]Series, len(f.specs))
	jobs := make([]job, len(f.specs))
	for i, spec := range f.specs {
		jobs[i] = job{key: spec.Label, spec: spec, sc: sc, seed: opts.BaseSeed,
			reduce: func(_ uint64, out runOut) {
				s := Series{Label: spec.Label}
				for _, snap := range out.col.Series() {
					s.X = append(s.X, float64(snap.Intervals))
					s.Y = append(s.Y, snap.Windowed[watched])
				}
				series[i] = s
			}}
	}
	if err := runJobs(figureMeta{id: f.id, title: f.title}, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", f.id, err)
	}
	return &Result{
		ID:     f.id,
		Title:  f.title,
		XLabel: "interval",
		YLabel: f.ylabel(watched, sc.required[watched]),
		Series: series,
	}, nil
}

// priorityProfileFigure regenerates Fig. 6: average timely-throughput per
// priority index under a fixed (frozen) priority ordering at α* = 0.6.
type priorityProfileFigure struct{}

// Fig6 returns the fixed-priority throughput profile.
func Fig6() Figure { return priorityProfileFigure{} }

func (priorityProfileFigure) ID() string { return "fig6" }

func (priorityProfileFigure) Title() string {
	return "Average timely-throughput per priority index under a fixed ordering (alpha*=0.6)"
}

func (f priorityProfileFigure) Run(opts RunOptions) (*Result, error) {
	opts = opts.fill()
	sc, err := videoScenario(0.60, videoRho, opts.scaled(videoIntervals))
	if err != nil {
		return nil, err
	}
	frozen := protocol.PaperDBDP()
	frozen.Frozen = true
	spec := protocol.DBDP(frozen)
	throughput := make([][]float64, opts.Seeds)
	jobs := make([]job, opts.Seeds)
	for s := range jobs {
		jobs[s] = job{key: "frozen", spec: spec, sc: sc, seed: opts.seedFor(s, 0),
			reduce: func(_ uint64, out runOut) {
				throughput[s] = make([]float64, videoLinks)
				for link := range throughput[s] {
					throughput[s][link] = out.col.Throughput(link)
				}
			}}
	}
	if err := runJobs(figureMeta{id: f.ID(), title: f.Title()}, jobs, opts); err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	// Sum in seed order, not completion order: float addition is not
	// associative, and the figure must not depend on the worker count.
	sums := make([]float64, videoLinks)
	for _, perLink := range throughput {
		for link, v := range perLink {
			sums[link] += v
		}
	}
	// With identity priorities, link n holds priority index n+1.
	series := Series{Label: "DP (frozen priorities)"}
	for link := 0; link < videoLinks; link++ {
		series.X = append(series.X, float64(link+1))
		series.Y = append(series.Y, sums[link]/float64(opts.Seeds))
	}
	return &Result{
		ID:     "fig6",
		Title:  f.Title(),
		XLabel: "priority index (1 = highest)",
		YLabel: "average timely-throughput (packets/interval)",
		Series: []Series{series},
	}, nil
}

// ExtraBaselines is a beyond-paper figure: the Fig. 3 sweep extended with
// the two additional baselines this repository implements — frame-based
// CSMA (whose open-loop schedules cannot adapt to losses) and 802.11 DCF
// (whose random backoff collides). It makes the paper's introduction-level
// arguments about both schemes measurable.
func ExtraBaselines() Figure {
	return &sweepFigure{
		id:     "extra-baselines",
		title:  "All five policies on the symmetric video network (90% delivery ratio)",
		xlabel: "alpha*",
		xs:     sweepRange(0.40, 0.70, 0.05),
		specs:  append(paperSpecs(), protocol.FrameCSMA(), protocol.DCF()),
		build: func(x float64, opts RunOptions) (scenario, error) {
			return videoScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}

// All returns every figure of the paper's evaluation in order.
func All() []Figure {
	return []Figure{Fig3(), Fig4(), Fig5(), Fig6(), Fig7(), Fig8(), Fig9(), Fig10()}
}

// Extended returns the paper's figures plus this repository's beyond-paper
// experiments.
func Extended() []Figure {
	return append(All(),
		ExtraBaselines(), ExtraSlotTime(), ExtraEmptyCost(), ExtraSwapPairs(),
		ExtraFading(), ExtraCorrelated(), ExtraLearning(), ExtraDelay())
}

// ByID returns the figure with the given ID, searching the extended set.
func ByID(id string) (Figure, error) {
	for _, f := range Extended() {
		if f.ID() == id {
			return f, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", id)
}
