package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// replications builds a deterministic pool of tagged replications.
func replications(n int) []Replication {
	rng := rand.New(rand.NewPCG(21, 22))
	out := make([]Replication, n)
	for i := range out {
		out[i] = Replication{
			Seed:       uint64(1000 + i),
			Value:      rng.Float64() * 2,
			DelayP50:   500 + rng.Float64()*100,
			DelayP95:   1500 + rng.Float64()*100,
			DelayP99:   1900 + rng.Float64()*50,
			DelayCount: int64(100 + i),
		}
	}
	return out
}

// TestPointAggregateMergeCommutative checks that the summary depends only on
// the replication multiset: adding the same replications in reverse order
// gives a bit-identical summary.
func TestPointAggregateMergeCommutative(t *testing.T) {
	reps := replications(9)
	var fwd, rev PointAggregate
	for i := range reps {
		fwd.Add(reps[i])
		rev.Add(reps[len(reps)-1-i])
	}
	if got, want := rev.Summary(0.95), fwd.Summary(0.95); got != want {
		t.Fatalf("insertion order changed the summary:\n%+v\nvs\n%+v", got, want)
	}
}

func TestPointAggregateSummary(t *testing.T) {
	var a PointAggregate
	a.Add(Replication{Seed: 1, Value: 1, DelayP50: 100, DelayP95: 200, DelayP99: 300, DelayCount: 10})
	a.Add(Replication{Seed: 2, Value: 3, DelayP50: 300, DelayP95: 400, DelayP99: 500, DelayCount: 30})
	sum := a.Summary(0.95)
	if sum.N != 2 || sum.Mean != 2 {
		t.Fatalf("N=%d Mean=%v", sum.N, sum.Mean)
	}
	// StdErr of {1,3} is 1; 95% CI half-width is 1.96·1.
	if math.Abs(sum.StdErr-1) > 1e-12 {
		t.Fatalf("StdErr = %v, want 1", sum.StdErr)
	}
	if math.Abs(sum.CIHalf-1.96) > 1e-12 {
		t.Fatalf("CIHalf = %v, want 1.96", sum.CIHalf)
	}
	if sum.DelayP50 != 200 || sum.DelayP95 != 300 || sum.DelayP99 != 400 {
		t.Fatalf("delay quantile means: %+v", sum)
	}
	if sum.DelayCount != 40 {
		t.Fatalf("DelayCount = %d, want 40", sum.DelayCount)
	}
}

func TestPointAggregateSkipsEmptyDelay(t *testing.T) {
	var a PointAggregate
	a.Add(Replication{Seed: 1, Value: 1, DelayCount: 0})
	a.Add(Replication{Seed: 2, Value: 2, DelayP50: 100, DelayP95: 200, DelayP99: 300, DelayCount: 5})
	sum := a.Summary(0.95)
	// The zero-delivery replication must not drag the delay means to zero.
	if sum.DelayP50 != 100 || sum.DelayP95 != 200 || sum.DelayP99 != 300 {
		t.Fatalf("delay means polluted by empty replication: %+v", sum)
	}
	if sum.DelayCount != 5 {
		t.Fatalf("DelayCount = %d, want 5", sum.DelayCount)
	}
	if a.Count() != 2 {
		t.Fatalf("Count = %d, want 2", a.Count())
	}
}
