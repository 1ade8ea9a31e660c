package rtmac

import (
	"fmt"

	"rtmac/internal/debt"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/perm"
	"rtmac/internal/protocol"
)

// Protocol selects a medium-access policy. Construct one with DBDP, LDF,
// ELDF, FCSMA or DCF; the zero value is invalid.
type Protocol struct {
	spec protocol.Spec
}

// Label returns the protocol's display name.
func (p Protocol) Label() string { return p.spec.Label }

// CollisionFree reports whether the policy is collision-free by
// construction (DB-DP, LDF/ELDF, TDMA, frame-based CSMA); random-access
// baselines (FCSMA, DCF) collide by design.
func (p Protocol) CollisionFree() bool { return p.spec.CollisionFree }

// DBDPOption customizes the DB-DP protocol.
type DBDPOption func(*dbdpConfig)

type dbdpConfig = protocol.DBDPConfig

// WithSwapPairs enables the paper's Remark-6 extension: m non-adjacent
// priority pairs are candidates for swapping each interval instead of one.
func WithSwapPairs(m int) DBDPOption {
	return func(c *dbdpConfig) { c.Pairs = m }
}

// WithFrozenPriorities disables reordering entirely (the paper's Figure 6
// setup: a fixed priority ordering).
func WithFrozenPriorities() DBDPOption {
	return func(c *dbdpConfig) { c.Frozen = true }
}

// WithInitialPriorities sets σ(0); priorities[link] ∈ {1..N} must form a
// permutation, 1 being the highest priority.
func WithInitialPriorities(priorities []int) DBDPOption {
	return func(c *dbdpConfig) { c.Initial = append([]int(nil), priorities...) }
}

// WithInfluence overrides the debt influence function and the Glauber
// constant R of Eq. 14. The paper's evaluation uses
// f(x) = log(max{1, 100(x+1)}) and R = 10, which are the defaults.
func WithInfluence(f InfluenceFunc, r float64) DBDPOption {
	return func(c *dbdpConfig) { c.F = f.f; c.R = r }
}

// WithConstantMu replaces the debt-driven bias with a fixed µ for every
// link — the generic DP protocol of Section IV, whose priority process has
// the Proposition-2 product-form stationary distribution.
func WithConstantMu(mu float64) DBDPOption {
	return func(c *dbdpConfig) { c.ConstMu = mu; c.UseConst = true }
}

// WithLearnedReliability removes the channel-state oracle: instead of being
// given p_n, each link estimates it online from its own transmission
// outcomes (Beta-Bernoulli posterior mean) — the paper's "learning from the
// empirical results of past transmissions" option.
func WithLearnedReliability() DBDPOption {
	return func(c *dbdpConfig) { c.Learned = true }
}

// DBDP returns the paper's debt-based decentralized priority protocol.
func DBDP(opts ...DBDPOption) Protocol {
	cfg := protocol.PaperDBDP()
	for _, opt := range opts {
		opt(&cfg)
	}
	return Protocol{spec: protocol.DBDP(cfg)}
}

// LDF returns the centralized Largest-Debt-First comparator.
func LDF() Protocol { return Protocol{spec: protocol.LDF()} }

// ELDF returns the extended LDF policy with a custom debt influence
// function (Algorithm 1).
func ELDF(f InfluenceFunc) Protocol { return Protocol{spec: protocol.ELDF(f.f)} }

// FCSMA returns the discretized fast-CSMA baseline with its calibrated
// default contention-window discretization.
func FCSMA() Protocol { return Protocol{spec: protocol.FCSMA(fcsma.DefaultConfig())} }

// FCSMAWith returns the FCSMA baseline with an explicit discretization:
// debt is quantized into `levels` sections of width `quantum`, section l
// using contention window max(cwMin, cwMax >> l).
func FCSMAWith(cwMin, cwMax, levels int, quantum float64) Protocol {
	return Protocol{spec: protocol.FCSMA(fcsma.Config{CWMin: cwMin, CWMax: cwMax, Levels: levels, Quantum: quantum})}
}

// DCF returns the 802.11-style binary-exponential-backoff baseline.
func DCF() Protocol { return Protocol{spec: protocol.DCF()} }

// FrameCSMA returns the frame-based CSMA baseline (Lu et al., contrasted in
// the paper's introduction): per-frame open-loop schedules with a control
// phase, feasibility-optimal only over reliable channels because the
// schedule cannot adapt to within-frame losses.
func FrameCSMA() Protocol { return Protocol{spec: protocol.FrameCSMA()} }

// TDMA returns a static round-robin time-division baseline: collision-free
// like DB-DP but with a fixed slot allocation that ignores debts, arrivals
// and channel quality — the zero-adaptivity reference point.
func TDMA() Protocol { return Protocol{spec: protocol.TDMA()} }

// InfluenceFunc wraps a debt influence function (Definition 6).
type InfluenceFunc struct {
	f debt.InfluenceFunc
}

// Name identifies the function.
func (f InfluenceFunc) Name() string { return f.f.Name() }

// Eval applies the function (negative debts clamp to zero).
func (f InfluenceFunc) Eval(x float64) float64 { return f.f.Eval(x) }

// IdentityInfluence returns f(x) = x (turns ELDF into classical LDF).
func IdentityInfluence() InfluenceFunc { return InfluenceFunc{f: debt.Identity()} }

// PaperInfluence returns the paper's evaluation choice
// f(x) = log(max{1, 100(x+1)}).
func PaperInfluence() InfluenceFunc { return InfluenceFunc{f: debt.PaperLog()} }

// LogInfluence returns f(x) = log(max{1, scale·(x+1)}).
func LogInfluence(scale float64) (InfluenceFunc, error) {
	f, err := debt.Log(scale)
	if err != nil {
		return InfluenceFunc{}, fmt.Errorf("rtmac: %w", err)
	}
	return InfluenceFunc{f: f}, nil
}

// PowerInfluence returns f(x) = x^m for m ≥ 0.
func PowerInfluence(m float64) (InfluenceFunc, error) {
	f, err := debt.Power(m)
	if err != nil {
		return InfluenceFunc{}, fmt.Errorf("rtmac: %w", err)
	}
	return InfluenceFunc{f: f}, nil
}

// Priorities returns the DB-DP protocol's current priority vector
// (priorities[link] = index, 1 highest), or nil when the simulation runs a
// policy without explicit priorities (LDF, FCSMA, DCF).
func (s *Simulation) Priorities() []int {
	type priorityCarrier interface{ Priorities() perm.Permutation }
	if pc, ok := s.prot.(priorityCarrier); ok {
		return pc.Priorities()
	}
	return nil
}
