// Package protocol declares every medium-access policy once: how to build a
// fresh instance for an N-link network, and which of the paper's structural
// guarantees the runtime invariant monitor must hold it to. The public rtmac
// API and the figure harness both run policies through this one spec.
package protocol

import (
	"fmt"

	"rtmac/internal/core"
	"rtmac/internal/debt"
	"rtmac/internal/mac"
	"rtmac/internal/mac/dcf"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/mac/tdma"
	"rtmac/internal/medium"
	"rtmac/internal/monitor"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
)

// Spec names one policy, builds fresh instances of it, and declares its
// guarantees.
type Spec struct {
	// Label is the display name (reports, figure series, errors).
	Label string
	// Build constructs a fresh instance for an n-link network.
	Build func(n int) (mac.Protocol, error)
	// CollisionFree marks policies the paper proves (or constructs to be)
	// collision-free on the fully-interfering channel.
	CollisionFree bool
	// CollisionFreeOnGraph marks the subset that stays collision-free on an
	// arbitrary conflict graph: LDF/ELDF serve a greedy independent set, TDMA
	// schedules color classes, and frame-based CSMA stays globally
	// sequential. DB-DP is excluded — its injective-counter argument is a
	// complete-graph property, and per-neighborhood local ranks in unequal
	// neighborhoods can coincide.
	CollisionFreeOnGraph bool
	// SwapPairs is the per-interval swap allowance of the DP family (zero
	// for policies without priority swapping).
	SwapPairs int
}

// Monitor returns the invariant monitor configuration for running the policy
// on links links with the given interval length over conflicts (nil for the
// fully-interfering channel). On a partial conflict graph collision-freedom
// is only enforced for policies that keep it under spatial reuse; the
// airtime checker takes over there with the graph-aware overlap rule.
// Callers set Strict, Registry and Output.
func (s Spec) Monitor(links int, interval sim.Time, conflicts *medium.Graph) monitor.Config {
	collisionFree := s.CollisionFree
	if conflicts != nil && !conflicts.Complete() && !s.CollisionFreeOnGraph {
		collisionFree = false
	}
	return monitor.Config{
		Links:         links,
		Interval:      interval,
		CollisionFree: collisionFree,
		SwapPairs:     s.SwapPairs,
		Conflicts:     conflicts,
	}
}

// DBDPConfig parameterizes the DP protocol family.
type DBDPConfig struct {
	// Pairs is the Remark-6 swap allowance per interval.
	Pairs int
	// Frozen disables reordering (the paper's Figure 6 setup).
	Frozen bool
	// Initial, when non-nil, sets σ(0) (priorities[link] ∈ {1..N}).
	Initial []int
	// F and R are the debt influence function and Glauber constant of
	// Eq. 14.
	F debt.InfluenceFunc
	R float64
	// ConstMu, with UseConst, replaces the debt-driven bias with a fixed µ.
	ConstMu  float64
	UseConst bool
	// Learned estimates p_n online instead of reading the channel oracle.
	Learned bool
}

// PaperDBDP returns the paper's evaluation setup: one swap pair,
// f(x) = log(max{1, 100(x+1)}) and R = 10.
func PaperDBDP() DBDPConfig {
	return DBDPConfig{Pairs: 1, F: debt.PaperLog(), R: 10}
}

// DBDP returns the debt-based decentralized priority protocol.
func DBDP(cfg DBDPConfig) Spec {
	return Spec{
		Label:         "DB-DP",
		CollisionFree: true,
		SwapPairs:     cfg.Pairs,
		Build: func(n int) (mac.Protocol, error) {
			var opts []core.Option
			if cfg.Pairs != 1 {
				opts = append(opts, core.WithPairs(cfg.Pairs))
			}
			if cfg.Frozen {
				opts = append(opts, core.WithFrozenPriorities())
			}
			if cfg.Initial != nil {
				prio, err := perm.New(cfg.Initial)
				if err != nil {
					return nil, err
				}
				opts = append(opts, core.WithInitialPriorities(prio))
			}
			if cfg.R <= 0 {
				return nil, fmt.Errorf("rtmac: Glauber constant R must be positive, got %v", cfg.R)
			}
			var policy core.MuPolicy
			switch {
			case cfg.UseConst:
				policy = core.ConstantMu{Value: cfg.ConstMu}
			case cfg.Learned:
				learned, err := core.NewEstimatedDebtGlauber(n)
				if err != nil {
					return nil, err
				}
				learned.F = cfg.F
				learned.R = cfg.R
				policy = learned
			default:
				policy = core.DebtGlauber{F: cfg.F, R: cfg.R}
			}
			return core.New(n, policy, opts...)
		},
	}
}

// LDF returns the centralized Largest-Debt-First comparator.
func LDF() Spec {
	return Spec{
		Label:                "LDF",
		CollisionFree:        true,
		CollisionFreeOnGraph: true,
		Build:                func(int) (mac.Protocol, error) { return ldf.NewLDF(), nil },
	}
}

// ELDF returns the extended LDF policy with influence function f.
func ELDF(f debt.InfluenceFunc) Spec {
	return Spec{
		Label:                fmt.Sprintf("ELDF[%s]", f.Name()),
		CollisionFree:        true,
		CollisionFreeOnGraph: true,
		Build:                func(int) (mac.Protocol, error) { return ldf.New(f), nil },
	}
}

// FCSMA returns the discretized fast-CSMA baseline.
func FCSMA(cfg fcsma.Config) Spec {
	return Spec{
		Label: "FCSMA",
		Build: func(int) (mac.Protocol, error) { return fcsma.New(cfg) },
	}
}

// DCF returns the 802.11-style binary-exponential-backoff baseline.
func DCF() Spec {
	return Spec{
		Label: "DCF",
		Build: func(n int) (mac.Protocol, error) { return dcf.New(n, dcf.DefaultConfig()) },
	}
}

// FrameCSMA returns the frame-based CSMA baseline.
func FrameCSMA() Spec {
	return Spec{
		Label:                "Frame-CSMA",
		CollisionFree:        true,
		CollisionFreeOnGraph: true,
		Build:                func(int) (mac.Protocol, error) { return framecsma.New(framecsma.DefaultConfig()) },
	}
}

// TDMA returns the static round-robin time-division baseline.
func TDMA() Spec {
	return Spec{
		Label:                "TDMA",
		CollisionFree:        true,
		CollisionFreeOnGraph: true,
		Build:                func(int) (mac.Protocol, error) { return tdma.New(true), nil },
	}
}
