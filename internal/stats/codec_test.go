package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// randAccumulator builds an accumulator over a random stream.
func randAccumulator(rng *rand.Rand, n int) *Accumulator {
	var a Accumulator
	for i := 0; i < n; i++ {
		a.Add(rng.NormFloat64()*10 + 50)
	}
	return &a
}

func randSketch(t *testing.T, rng *rand.Rand, n int) *QuantileSketch {
	t.Helper()
	sk, err := NewQuantileSketch(0.5, 0.95, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sk.Add(rng.ExpFloat64() * 1000)
	}
	return sk
}

func randPoint(rng *rand.Rand, n int) *PointAggregate {
	var a PointAggregate
	for i := 0; i < n; i++ {
		a.Add(Replication{
			Seed:       rng.Uint64() % 1000,
			Value:      rng.Float64() * 5,
			DelayP50:   rng.Float64() * 100,
			DelayP95:   rng.Float64() * 500,
			DelayP99:   rng.Float64() * 900,
			DelayCount: rng.Int63n(10000),
		})
	}
	return &a
}

// TestAccumulatorStateRoundTrip checks that State/FromState preserves the
// Welford triple exactly and that resuming a restored accumulator matches
// never having paused.
func TestAccumulatorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100} {
		cont := rng.Int63()
		a := randAccumulator(rand.New(rand.NewSource(cont)), n)
		restored, err := AccumulatorFromState(a.State())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if *restored != *a {
			t.Fatalf("n=%d: restored %+v != original %+v", n, *restored, *a)
		}
		// Resume both with the same tail; they must stay identical.
		tail := rand.New(rand.NewSource(cont + 1))
		for i := 0; i < 10; i++ {
			x := tail.NormFloat64()
			a.Add(x)
			restored.Add(x)
		}
		if *restored != *a {
			t.Fatalf("n=%d: resumed streams diverged", n)
		}
	}
}

// TestP2StateRoundTrip covers both the warm-up-buffer and initialized-marker
// regimes, and that a restored estimator continues the stream exactly.
func TestP2StateRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 6, 500} {
		orig, err := NewP2(0.95)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n) + 7))
		for i := 0; i < n; i++ {
			orig.Add(rng.Float64() * 100)
		}
		restored, err := P2FromState(orig.State())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < 50; i++ {
			x := rng.Float64() * 100
			orig.Add(x)
			restored.Add(x)
		}
		if orig.Count() != restored.Count() || orig.Quantile() != restored.Quantile() {
			t.Fatalf("n=%d: resumed estimator diverged: %v vs %v", n, orig.Quantile(), restored.Quantile())
		}
	}
}

// TestSketchStateRoundTrip checks the sketch, including the empty sketch
// whose ±Inf min/max sentinels cannot survive JSON directly.
func TestSketchStateRoundTrip(t *testing.T) {
	for _, n := range []int{0, 3, 1000} {
		sk := randSketch(t, rand.New(rand.NewSource(int64(n))), n)
		restored, err := SketchFromState(sk.State())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if restored.Count() != sk.Count() {
			t.Fatalf("n=%d: count %d != %d", n, restored.Count(), sk.Count())
		}
		if restored.Min() != sk.Min() || restored.Max() != sk.Max() {
			t.Fatalf("n=%d: min/max (%v,%v) != (%v,%v)", n,
				restored.Min(), restored.Max(), sk.Min(), sk.Max())
		}
		for _, q := range sk.Quantiles() {
			if restored.Quantile(q) != sk.Quantile(q) {
				t.Fatalf("n=%d: q%v %v != %v", n, q, restored.Quantile(q), sk.Quantile(q))
			}
		}
	}
}

// TestJSONByteStability checks decode∘encode is the identity on JSON bytes
// for every state kind: fixed field order plus Go's shortest-round-trip float
// formatting make re-encoding a decoded state reproduce the input exactly.
func TestJSONByteStability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	states := []any{
		randAccumulator(rng, 37).State(),
		mustP2State(t, 0.5, 3, rng),
		mustP2State(t, 0.99, 250, rng),
		randSketch(t, rng, 0).State(),
		randSketch(t, rng, 420).State(),
		randPoint(rng, 9).State(),
	}
	for i, st := range states {
		first, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		redecoded, err := decodeJSONState(st, first)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		second, err := json.Marshal(redecoded)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("state %d (%T): JSON not byte-stable:\n  %s\n  %s", i, st, first, second)
		}
	}
}

// decodeJSONState unmarshals data into a fresh value of st's concrete type.
func decodeJSONState(st any, data []byte) (any, error) {
	switch st.(type) {
	case AccumulatorState:
		var v AccumulatorState
		err := json.Unmarshal(data, &v)
		return v, err
	case P2State:
		var v P2State
		err := json.Unmarshal(data, &v)
		return v, err
	case SketchState:
		var v SketchState
		err := json.Unmarshal(data, &v)
		return v, err
	case PointState:
		var v PointState
		err := json.Unmarshal(data, &v)
		return v, err
	}
	panic("unknown state type")
}

func mustP2State(t *testing.T, p float64, n int, rng *rand.Rand) P2State {
	t.Helper()
	est, err := NewP2(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		est.Add(rng.Float64())
	}
	return est.State()
}

// TestFromStateRejects checks that each restore path refuses states no
// genuine stream can produce, so a tampered or truncated record on disk is
// rejected instead of restored.
func TestFromStateRejects(t *testing.T) {
	warm := P2State{P: 0.5, Count: 2, Buf: []float64{1, 2}}
	markers := func(mut func(*P2State)) P2State {
		st := P2State{P: 0.5, Count: 6,
			Q: []float64{1, 2, 3, 4, 5}, N: []float64{1, 2, 3, 4, 6}, NP: []float64{1, 2, 3, 4, 6}}
		mut(&st)
		return st
	}
	accumulators := map[string]AccumulatorState{
		"negative count":     {N: -1},
		"non-finite mean":    {N: 1, Mean: math.Inf(1)},
		"non-finite M2":      {N: 2, M2: math.NaN()},
		"negative M2":        {N: 2, M2: -1},
		"empty with moments": {N: 0, Mean: 1},
	}
	for name, st := range accumulators {
		if _, err := AccumulatorFromState(st); err == nil {
			t.Errorf("accumulator %s: accepted", name)
		}
	}
	p2s := map[string]P2State{
		"bad quantile":         {P: 1.5, Count: 0, Buf: []float64{}},
		"negative count":       {P: 0.5, Count: -1},
		"buffer too long":      {P: 0.5, Count: 5, Buf: []float64{1, 2, 3, 4, 5}},
		"buffer length":        {P: 0.5, Count: 3, Buf: []float64{1, 2}},
		"buffer and markers":   {P: 0.5, Count: 2, Buf: warm.Buf, Q: []float64{1}},
		"non-finite buffer":    {P: 0.5, Count: 1, Buf: []float64{math.Inf(-1)}},
		"unsorted buffer":      {P: 0.5, Count: 2, Buf: []float64{2, 1}},
		"short markers":        markers(func(st *P2State) { st.Q = st.Q[:4] }),
		"non-finite marker":    markers(func(st *P2State) { st.NP[2] = math.NaN() }),
		"unsorted heights":     markers(func(st *P2State) { st.Q[3] = 0 }),
		"positions decreasing": markers(func(st *P2State) { st.N[2] = 2 }),
		"first position":       markers(func(st *P2State) { st.N[0] = 0 }),
		"last position":        markers(func(st *P2State) { st.N[4] = 7 }),
	}
	for name, st := range p2s {
		if _, err := P2FromState(st); err == nil {
			t.Errorf("p2 %s: accepted", name)
		}
	}
	if _, err := P2FromState(warm); err != nil {
		t.Fatalf("valid warm-up state rejected: %v", err)
	}
	if _, err := P2FromState(markers(func(*P2State) {})); err != nil {
		t.Fatalf("valid marker state rejected: %v", err)
	}
	sketch := func(mut func(*SketchState)) SketchState {
		st := SketchState{Quantiles: []float64{0.5}, Estimators: []P2State{warm},
			Acc: AccumulatorState{N: 2, Mean: 1.5, M2: 0.5}, Min: 1, Max: 2}
		mut(&st)
		return st
	}
	sketches := map[string]SketchState{
		"estimator count":   sketch(func(st *SketchState) { st.Estimators = nil }),
		"bad accumulator":   sketch(func(st *SketchState) { st.Acc.N = -1 }),
		"estimator target":  sketch(func(st *SketchState) { st.Estimators[0].P = 0.9 }),
		"bad estimator":     sketch(func(st *SketchState) { st.Estimators[0].Buf = []float64{2, 1} }),
		"count mismatch":    sketch(func(st *SketchState) { st.Acc.N = 3 }),
		"min above max":     sketch(func(st *SketchState) { st.Min = 3 }),
		"non-finite bounds": sketch(func(st *SketchState) { st.Max = math.Inf(1) }),
	}
	for name, st := range sketches {
		if _, err := SketchFromState(st); err == nil {
			t.Errorf("sketch %s: accepted", name)
		}
	}
	if _, err := SketchFromState(sketch(func(*SketchState) {})); err != nil {
		t.Fatalf("valid sketch state rejected: %v", err)
	}
	points := map[string]PointState{
		"non-finite value":     {Reps: []Replication{{Seed: 1, Value: math.NaN()}}},
		"non-finite delay":     {Reps: []Replication{{Seed: 1, DelayP99: math.Inf(1), DelayCount: 1}}},
		"negative delay count": {Reps: []Replication{{Seed: 1, DelayCount: -1}}},
	}
	for name, st := range points {
		if _, err := PointFromState(st); err == nil {
			t.Errorf("point %s: accepted", name)
		}
	}
}
