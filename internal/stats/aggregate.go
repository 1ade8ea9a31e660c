package stats

import "sort"

// Replication is one seeded run's contribution to a curve point: the headline
// metric (deficiency for the paper's sweeps) plus the delivery-delay summary
// reduced from that run's quantile sketch. Seed tags the replication so
// merged aggregates stay order-independent.
type Replication struct {
	Seed uint64 `json:"seed"`
	// Value is the headline per-point metric.
	Value float64 `json:"value"`
	// Delay quantiles in simulated microseconds; zero when the run recorded
	// no deliveries.
	DelayP50 float64 `json:"delay_p50,omitempty"`
	DelayP95 float64 `json:"delay_p95,omitempty"`
	DelayP99 float64 `json:"delay_p99,omitempty"`
	// DelayCount is the number of deliveries behind the quantiles.
	DelayCount int64 `json:"delay_count,omitempty"`
}

// PointAggregate collects the replications of one curve point across seeds.
// Aggregation is a multiset union: summaries are computed over the
// replications sorted by seed, so the result is independent of worker
// completion order — and, once serialized as a PointState, of the order in
// which the run ledger merges records.
type PointAggregate struct {
	reps []Replication
}

// Add records one replication.
func (a *PointAggregate) Add(r Replication) { a.reps = append(a.reps, r) }

// Count returns the number of replications aggregated.
func (a *PointAggregate) Count() int { return len(a.reps) }

// PointSummary is the fleet statistic of one curve point. Its JSON form is
// the display summary the run ledger stores beside each point's partial,
// computed at 95% confidence (hence ci95_half).
type PointSummary struct {
	// N is the number of replications.
	N int64 `json:"n"`
	// Mean, StdErr and CIHalf describe the headline metric: CIHalf is the
	// half-width of the normal-approximation confidence interval at the
	// level Summary was asked for.
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CIHalf float64 `json:"ci95_half"`
	// DelayP50/P95/P99 average each replication's delay quantile across
	// seeds (µs); DelayCount totals the deliveries behind them.
	DelayP50   float64 `json:"delay_p50,omitempty"`
	DelayP95   float64 `json:"delay_p95,omitempty"`
	DelayP99   float64 `json:"delay_p99,omitempty"`
	DelayCount int64   `json:"delay_count,omitempty"`
}

// Summary reduces the aggregate at the given confidence level (e.g. 0.95).
// Replications are folded in seed order so two aggregates holding the same
// replications produce bit-identical summaries regardless of insertion or
// merge order.
func (a *PointAggregate) Summary(level float64) PointSummary {
	reps := append([]Replication(nil), a.reps...)
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Seed != reps[j].Seed {
			return reps[i].Seed < reps[j].Seed
		}
		return reps[i].Value < reps[j].Value
	})
	var value, p50, p95, p99 Accumulator
	out := PointSummary{}
	for _, r := range reps {
		value.Add(r.Value)
		out.DelayCount += r.DelayCount
		if r.DelayCount > 0 {
			p50.Add(r.DelayP50)
			p95.Add(r.DelayP95)
			p99.Add(r.DelayP99)
		}
	}
	out.N = value.Count()
	out.Mean = value.Mean()
	out.StdErr = value.StdErr()
	out.CIHalf = value.Confidence(level).Half
	out.DelayP50 = p50.Mean()
	out.DelayP95 = p95.Mean()
	out.DelayP99 = p99.Mean()
	return out
}
