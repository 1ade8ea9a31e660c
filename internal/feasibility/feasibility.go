// Package feasibility provides checks for whether a timely-throughput
// requirement vector q is achievable on a fully-interfering network
// (Definitions 3–4 of the paper).
//
// Exact characterizations exist for special cases (Hou–Borkar–Kumar), but
// for the paper's general bounded i.i.d. arrivals the practical toolkit is:
//
//   - necessary workload bounds: delivering q_n packets per interval costs at
//     least q_n/p_n transmission slots in expectation, so Σ_S q_n/p_n must
//     fit within the slots the subset S can actually use (estimated by Monte
//     Carlo over arrival randomness);
//   - a sufficient empirical probe: run the feasibility-optimal LDF policy
//     and test whether the total deficiency vanishes.
package feasibility

import (
	"fmt"
	"math"

	"rtmac/internal/arrival"
	"rtmac/internal/mac"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
	"rtmac/internal/sim"
)

// Problem describes one feasibility question.
type Problem struct {
	Profile     phy.Profile
	SuccessProb []float64
	Arrivals    arrival.VectorProcess
	Required    []float64
}

// Validate reports configuration errors.
func (p Problem) Validate() error {
	if err := p.Profile.Validate(); err != nil {
		return err
	}
	n := len(p.SuccessProb)
	if n == 0 {
		return fmt.Errorf("feasibility: no links")
	}
	if p.Arrivals == nil || p.Arrivals.Links() != n {
		return fmt.Errorf("feasibility: arrival process missing or covers wrong link count")
	}
	if len(p.Required) != n {
		return fmt.Errorf("feasibility: requirement vector has %d links, want %d", len(p.Required), n)
	}
	for i, prob := range p.SuccessProb {
		if !(prob > 0 && prob <= 1) {
			return fmt.Errorf("feasibility: p_%d = %v outside (0, 1]", i, prob)
		}
	}
	return nil
}

// NecessaryBounds checks cheap necessary conditions: q_n ≤ λ_n per link and
// the total expected workload Σ q_n/p_n ≤ slots per interval. It returns nil
// when the conditions hold and a descriptive error naming the first violated
// bound otherwise. Passing these bounds does NOT prove feasibility.
func NecessaryBounds(p Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	means := p.Arrivals.Means()
	slots := float64(p.Profile.SlotsPerInterval())
	workload := 0.0
	for n, q := range p.Required {
		if q > means[n]+1e-12 {
			return fmt.Errorf("feasibility: link %d requires %v > arrival rate %v", n, q, means[n])
		}
		workload += q / p.SuccessProb[n]
	}
	if workload > slots+1e-9 {
		return fmt.Errorf("feasibility: expected workload %.3f slots exceeds %v available per interval",
			workload, slots)
	}
	return nil
}

// TotalWorkload returns Σ q_n/p_n in transmission slots per interval — the
// load measure used to position sweep ranges around capacity.
func TotalWorkload(p Problem) float64 {
	w := 0.0
	for n, q := range p.Required {
		w += q / p.SuccessProb[n]
	}
	return w
}

// ProbeResult reports one empirical feasibility probe.
type ProbeResult struct {
	// Deficiency is the total timely-throughput deficiency after the probe.
	Deficiency float64
	// Feasible is Deficiency <= the probe's tolerance.
	Feasible bool
	// Intervals is the probe length used.
	Intervals int
}

// ProbeConfig tunes the Monte-Carlo probe.
type ProbeConfig struct {
	// Seed drives the probe simulation.
	Seed uint64
	// Intervals is the simulated horizon (default 3000).
	Intervals int
	// Tolerance is the deficiency threshold below which the probe declares
	// the vector feasible (default 0.01 packets/interval).
	Tolerance float64
	// Protocol builds the policy to probe with. The default is the
	// feasibility-optimal centralized LDF, making the probe a feasibility
	// test; substituting another policy turns Probe/Frontier into a
	// capacity measurement OF THAT POLICY (e.g. locating FCSMA's admissible
	// load, as the paper does in Fig. 3).
	Protocol func(links int) (mac.Protocol, error)
}

func (c *ProbeConfig) fill() {
	if c.Intervals <= 0 {
		c.Intervals = 3000
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Protocol == nil {
		c.Protocol = func(int) (mac.Protocol, error) { return ldf.NewLDF(), nil }
	}
}

// Probe runs the feasibility-optimal centralized LDF policy on the problem
// and reports whether the deficiency vanished. Because LDF is
// feasibility-optimal, a vanishing deficiency is strong evidence of
// feasibility and a large residual one of infeasibility (up to finite-
// horizon noise, exactly as the paper notes for its own simulations).
func Probe(p Problem, cfg ProbeConfig) (ProbeResult, error) {
	if err := p.Validate(); err != nil {
		return ProbeResult{}, err
	}
	cfg.fill()
	col, err := metrics.NewCollector(p.Required)
	if err != nil {
		return ProbeResult{}, err
	}
	prot, err := cfg.Protocol(len(p.SuccessProb))
	if err != nil {
		return ProbeResult{}, fmt.Errorf("feasibility: building probe protocol: %w", err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        cfg.Seed,
		Profile:     p.Profile,
		SuccessProb: p.SuccessProb,
		Arrivals:    p.Arrivals,
		Required:    p.Required,
		Protocol:    prot,
		Observers:   []mac.Observer{col},
	})
	if err != nil {
		return ProbeResult{}, err
	}
	if err := nw.Run(cfg.Intervals); err != nil {
		return ProbeResult{}, err
	}
	d := col.TotalDeficiency()
	return ProbeResult{
		Deficiency: d,
		Feasible:   d <= cfg.Tolerance,
		Intervals:  cfg.Intervals,
	}, nil
}

// Frontier binary-searches the largest scale γ ∈ [lo, hi] such that the
// problem with requirements γ·q still probes feasible. It is the tool used
// to locate "maximum admissible load" knees like the α* ≈ 0.62 the paper
// reads off its Figure 3.
func Frontier(p Problem, cfg ProbeConfig, lo, hi float64, iterations int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !(lo >= 0 && hi > lo) {
		return 0, fmt.Errorf("feasibility: invalid search range [%v, %v]", lo, hi)
	}
	if iterations <= 0 {
		iterations = 12
	}
	base := make([]float64, len(p.Required))
	copy(base, p.Required)
	scaled := func(gamma float64) Problem {
		q := make([]float64, len(base))
		for i := range q {
			q[i] = gamma * base[i]
		}
		sp := p
		sp.Required = q
		return sp
	}
	for i := 0; i < iterations; i++ {
		mid := (lo + hi) / 2
		res, err := Probe(scaled(mid), cfg)
		if err != nil {
			return 0, err
		}
		if res.Feasible {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// ExpectedServiceSlots estimates, by Monte Carlo, how many transmission
// slots per interval a work-conserving scheduler serving only the subset S
// can usefully occupy (arrival randomness can idle the channel even when
// capacity remains). Combined with the workload of S this yields the
// subset-level necessary condition Σ_{n∈S} q_n/p_n ≤ ExpectedServiceSlots(S).
func ExpectedServiceSlots(p Problem, subset []int, seed uint64, samples int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if samples <= 0 {
		samples = 2000
	}
	rng := sim.NewRNG(seed)
	slots := p.Profile.SlotsPerInterval()
	arrivals := make([]int, p.Arrivals.Links())
	total := 0.0
	for s := 0; s < samples; s++ {
		p.Arrivals.Sample(rng, arrivals)
		used := 0
		for _, n := range subset {
			for pkt := 0; pkt < arrivals[n] && used < slots; pkt++ {
				// Geometric number of attempts to deliver this packet,
				// truncated by the interval end.
				need := rng.Geometric(p.SuccessProb[n])
				if used+need > slots {
					used = slots
					break
				}
				used += need
			}
			if used >= slots {
				break
			}
		}
		total += float64(used)
	}
	return total / float64(samples), nil
}

// SubsetBoundViolation scans all 2^N − 1 nonempty subsets (N ≤ maxExactLinks)
// for a violated subset-level necessary bound and returns a description of
// the worst violation, or the empty string when none is found.
func SubsetBoundViolation(p Problem, seed uint64, samples int) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	n := len(p.Required)
	const maxExactLinks = 14
	if n > maxExactLinks {
		return "", fmt.Errorf("feasibility: subset scan supports up to %d links, got %d", maxExactLinks, n)
	}
	worst := ""
	worstGap := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		var subset []int
		workload := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
				workload += p.Required[i] / p.SuccessProb[i]
			}
		}
		capacity, err := ExpectedServiceSlots(p, subset, seed, samples)
		if err != nil {
			return "", err
		}
		if gap := workload - capacity; gap > 1e-6 && gap > worstGap {
			worstGap = gap
			worst = fmt.Sprintf("subset %v: workload %.3f > capacity %.3f (gap %.3f slots/interval)",
				subset, workload, capacity, gap)
		}
	}
	return worst, nil
}

// MaxDeficiencyLowerBound returns a crude lower bound on the steady-state
// total deficiency of an infeasible instance: the excess expected workload
// beyond one interval's slots, converted back to packets at the best channel
// rate. Useful for sanity-checking simulated deficiencies in tests.
func MaxDeficiencyLowerBound(p Problem) float64 {
	excess := TotalWorkload(p) - float64(p.Profile.SlotsPerInterval())
	if excess <= 0 {
		return 0
	}
	best := 0.0
	for _, prob := range p.SuccessProb {
		best = math.Max(best, prob)
	}
	return excess * best
}
