package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file defines the serialized forms of the package's streaming partials
// — Welford accumulators, P² quantile estimators, quantile sketches, and
// per-point replication aggregates — so they can outlive the process that
// computed them. Two runs that each serialize their partials can be merged
// after the fact exactly as if their seeds had run in one process: the
// point-level partial is the replication multiset, whose merge is a union and
// whose summary folds replications in seed order, so merge order never leaks
// into the result.
//
// Each state has one encoding: JSON, via the exported state structs. Field
// order is fixed and floats use Go's shortest-round-trip form, so
// decode∘encode is byte-stable and equal states always produce equal bytes.
// The *FromState functions validate a decoded state before restoring it.

// AccumulatorState is the serialized form of an Accumulator: the exact
// Welford triple. Restoring it and continuing to Add is equivalent to never
// having paused.
type AccumulatorState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State captures the accumulator's Welford triple.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{N: a.n, Mean: a.mean, M2: a.m2}
}

// AccumulatorFromState restores an accumulator, validating the invariants a
// genuine Welford stream maintains.
func AccumulatorFromState(st AccumulatorState) (*Accumulator, error) {
	if st.N < 0 {
		return nil, fmt.Errorf("stats: accumulator state with negative count %d", st.N)
	}
	if !isFinite(st.Mean) || !isFinite(st.M2) {
		return nil, fmt.Errorf("stats: accumulator state with non-finite moments")
	}
	if st.M2 < 0 {
		return nil, fmt.Errorf("stats: accumulator state with negative M2 %v", st.M2)
	}
	if st.N == 0 && (st.Mean != 0 || st.M2 != 0) {
		return nil, fmt.Errorf("stats: empty accumulator state with non-zero moments")
	}
	return &Accumulator{n: st.N, mean: st.Mean, m2: st.M2}, nil
}

// P2State is the serialized form of a P² estimator: the five marker heights
// and positions plus the warm-up buffer. Restoring it resumes the stream
// exactly where it paused.
type P2State struct {
	P     float64   `json:"p"`
	Count int64     `json:"count"`
	Q     []float64 `json:"q,omitempty"`
	N     []float64 `json:"n,omitempty"`
	NP    []float64 `json:"np,omitempty"`
	// Buf holds the first observations (sorted) while fewer than five have
	// arrived; once the markers initialize it is absent.
	Buf []float64 `json:"buf,omitempty"`
}

// State captures the estimator.
func (s *P2) State() P2State {
	st := P2State{P: s.p, Count: s.count}
	if s.buf != nil {
		st.Buf = append([]float64{}, s.buf...)
		return st
	}
	st.Q = append([]float64{}, s.q[:]...)
	st.N = append([]float64{}, s.n[:]...)
	st.NP = append([]float64{}, s.np[:]...)
	return st
}

// P2FromState restores a P² estimator, validating the structural invariants
// of the marker arrays (or the warm-up buffer).
func P2FromState(st P2State) (*P2, error) {
	est, err := NewP2(st.P)
	if err != nil {
		return nil, err
	}
	if st.Count < 0 {
		return nil, fmt.Errorf("stats: p2 state with negative count %d", st.Count)
	}
	if st.Buf != nil || st.Count < 5 {
		if st.Count >= 5 {
			return nil, fmt.Errorf("stats: p2 state buffering with count %d >= 5", st.Count)
		}
		if int64(len(st.Buf)) != st.Count {
			return nil, fmt.Errorf("stats: p2 buffer length %d != count %d", len(st.Buf), st.Count)
		}
		if len(st.Q) != 0 || len(st.N) != 0 || len(st.NP) != 0 {
			return nil, fmt.Errorf("stats: p2 state carries both buffer and markers")
		}
		for i, x := range st.Buf {
			if !isFinite(x) {
				return nil, fmt.Errorf("stats: p2 buffer value %d not finite", i)
			}
			if i > 0 && x < st.Buf[i-1] {
				return nil, fmt.Errorf("stats: p2 buffer not sorted at %d", i)
			}
		}
		est.count = st.Count
		est.buf = append(est.buf, st.Buf...)
		return est, nil
	}
	if len(st.Q) != 5 || len(st.N) != 5 || len(st.NP) != 5 {
		return nil, fmt.Errorf("stats: p2 state wants 5 markers, got q=%d n=%d np=%d",
			len(st.Q), len(st.N), len(st.NP))
	}
	for i := 0; i < 5; i++ {
		if !isFinite(st.Q[i]) || !isFinite(st.N[i]) || !isFinite(st.NP[i]) {
			return nil, fmt.Errorf("stats: p2 marker %d not finite", i)
		}
		if i > 0 {
			if st.Q[i] < st.Q[i-1] {
				return nil, fmt.Errorf("stats: p2 marker heights not sorted at %d", i)
			}
			if st.N[i] <= st.N[i-1] {
				return nil, fmt.Errorf("stats: p2 marker positions not increasing at %d", i)
			}
		}
	}
	if st.N[0] != 1 {
		return nil, fmt.Errorf("stats: p2 first marker position %v != 1", st.N[0])
	}
	if st.N[4] != float64(st.Count) {
		return nil, fmt.Errorf("stats: p2 last marker position %v != count %d", st.N[4], st.Count)
	}
	est.count = st.Count
	copy(est.q[:], st.Q)
	copy(est.n[:], st.N)
	copy(est.np[:], st.NP)
	est.buf = nil
	return est, nil
}

// SketchState is the serialized form of a QuantileSketch. Min and Max are
// stored as 0 while the sketch is empty (JSON cannot carry the ±Inf
// sentinels) and restored to the empty-sketch sentinels on decode.
type SketchState struct {
	Quantiles  []float64        `json:"quantiles"`
	Estimators []P2State        `json:"estimators"`
	Acc        AccumulatorState `json:"acc"`
	Min        float64          `json:"min"`
	Max        float64          `json:"max"`
}

// State captures the sketch.
func (s *QuantileSketch) State() SketchState {
	st := SketchState{
		Quantiles:  append([]float64{}, s.qs...),
		Estimators: make([]P2State, len(s.est)),
		Acc:        s.acc.State(),
	}
	for i, e := range s.est {
		st.Estimators[i] = e.State()
	}
	if s.acc.Count() > 0 {
		st.Min, st.Max = s.min, s.max
	}
	return st
}

// SketchFromState restores a QuantileSketch.
func SketchFromState(st SketchState) (*QuantileSketch, error) {
	sk, err := NewQuantileSketch(st.Quantiles...)
	if err != nil {
		return nil, err
	}
	if len(st.Estimators) != len(st.Quantiles) {
		return nil, fmt.Errorf("stats: sketch state has %d estimators for %d quantiles",
			len(st.Estimators), len(st.Quantiles))
	}
	acc, err := AccumulatorFromState(st.Acc)
	if err != nil {
		return nil, err
	}
	for i, es := range st.Estimators {
		if es.P != st.Quantiles[i] {
			return nil, fmt.Errorf("stats: sketch estimator %d targets %v, want %v", i, es.P, st.Quantiles[i])
		}
		est, err := P2FromState(es)
		if err != nil {
			return nil, err
		}
		if est.Count() != acc.Count() {
			return nil, fmt.Errorf("stats: sketch estimator %d count %d != accumulator count %d",
				i, est.Count(), acc.Count())
		}
		sk.est[i] = est
	}
	sk.acc = *acc
	if acc.Count() > 0 {
		if !isFinite(st.Min) || !isFinite(st.Max) || st.Min > st.Max {
			return nil, fmt.Errorf("stats: sketch state min/max invalid (%v, %v)", st.Min, st.Max)
		}
		sk.min, sk.max = st.Min, st.Max
	}
	return sk, nil
}

// PointState is the serialized form of a PointAggregate: the replication
// multiset itself, in canonical (seed, value) order. Because the summary
// folds replications in that same order, any grouping of unions over
// serialized states reproduces the single-process aggregate bit for bit.
type PointState struct {
	Reps []Replication `json:"reps"`
}

// State captures the aggregate's replications in canonical order.
func (a *PointAggregate) State() PointState {
	reps := append([]Replication{}, a.reps...)
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Seed != reps[j].Seed {
			return reps[i].Seed < reps[j].Seed
		}
		return reps[i].Value < reps[j].Value
	})
	return PointState{Reps: reps}
}

// PointFromState restores a PointAggregate.
func PointFromState(st PointState) (*PointAggregate, error) {
	for i, r := range st.Reps {
		if !isFinite(r.Value) || !isFinite(r.DelayP50) || !isFinite(r.DelayP95) || !isFinite(r.DelayP99) {
			return nil, fmt.Errorf("stats: point state replication %d has non-finite values", i)
		}
		if r.DelayCount < 0 {
			return nil, fmt.Errorf("stats: point state replication %d has negative delay count", i)
		}
	}
	return &PointAggregate{reps: append([]Replication{}, st.Reps...)}, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
