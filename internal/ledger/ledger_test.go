package ledger

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

// testRecord builds a small valid record: one figure with two series over
// three x values, `seeds` replications per point drawn from a deterministic
// stream offset by `shift` (so different shifts produce different metrics).
func testRecord(t *testing.T, seeds []uint64, shift float64) *Record {
	t.Helper()
	rec := NewRecorder()
	for _, series := range []string{"DB-DP", "LDF"} {
		for _, x := range []float64{0.5, 0.6, 0.7} {
			agg := &stats.PointAggregate{}
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(x*100)))
				agg.Add(stats.Replication{
					Seed:       seed,
					Value:      rng.Float64()*0.1 + shift,
					DelayP50:   100 + rng.Float64()*10,
					DelayP95:   500 + rng.Float64()*10,
					DelayP99:   900 + rng.Float64()*10,
					DelayCount: 1000,
				})
			}
			rec.RecordAggregate("fig3", series, x, "deficiency", BetterLower, agg)
		}
	}
	m := telemetry.NewManifest("test", 1)
	out, err := rec.Finalize("figures", "test scenario", m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStoreAppendIdempotent(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(t, []uint64{1, 2, 3}, 0.2)
	id1, err := store.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := store.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("append not idempotent: %s != %s", id1, id2)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("idempotent append wrote %d index lines", len(entries))
	}
	got, err := store.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("loaded record differs from appended record")
	}
}

func TestStoreResolve(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idA, err := store.Append(testRecord(t, []uint64{1}, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := store.Append(testRecord(t, []uint64{2}, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := store.Resolve("latest"); err != nil || got != idB {
		t.Fatalf("latest -> %q, %v; want %q", got, err, idB)
	}
	if got, err := store.Resolve("latest~1"); err != nil || got != idA {
		t.Fatalf("latest~1 -> %q, %v; want %q", got, err, idA)
	}
	if got, err := store.Resolve(idA[:8]); err != nil || got != idA {
		t.Fatalf("prefix -> %q, %v; want %q", got, err, idA)
	}
	if _, err := store.Resolve("zz"); err == nil {
		t.Fatal("short reference resolved")
	}
	if _, err := store.Resolve("ffffffff"); err == nil {
		t.Fatal("unknown reference resolved")
	}
	for _, tc := range []struct {
		ref  string
		want string // "" means the reference must be rejected
	}{
		{"latest", idB},
		{"latest~1", idA},
		{"latest~1zz", ""},
		{"latest~", ""},
		{"latest~-1", ""},
		{"latest~+1", ""},
		{"latest~1 2", ""},
		{"latest~2", ""},
	} {
		got, err := store.Resolve(tc.ref)
		if tc.want == "" && err == nil {
			t.Errorf("%q resolved to %q, want an error", tc.ref, got)
		}
		if tc.want != "" && (err != nil || got != tc.want) {
			t.Errorf("%q -> %q, %v; want %q", tc.ref, got, err, tc.want)
		}
	}
}

// TestMergeMatchesSingleProcess is the ledger-level exactness pin: per-seed
// records merged in any grouping and order hash identically to the record a
// single multi-seed process produces.
func TestMergeMatchesSingleProcess(t *testing.T) {
	seeds := []uint64{11, 22, 33, 44}
	combined := testRecord(t, seeds, 0.2)
	var parts []*Record
	for _, s := range seeds {
		parts = append(parts, testRecord(t, []uint64{s}, 0.2))
	}
	wantID := mustMergedID(t, parts, nil)

	// Reversed order.
	rev := []*Record{parts[3], parts[2], parts[1], parts[0]}
	if got := mustMergedID(t, rev, nil); got != wantID {
		t.Fatal("merge is order-dependent")
	}
	// Associativity: merge((a,b), (c,d)) == merge(a,b,c,d).
	left, err := Merge(parts[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Merge(parts[2:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMergedID(t, []*Record{left, right}, nil); got != wantID {
		t.Fatal("merge is grouping-dependent")
	}
	// Idempotence: merging a record with itself changes nothing.
	twice, err := Merge([]*Record{parts[0], parts[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	once, err := Merge([]*Record{parts[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	onceID, err := once.ID()
	if err != nil {
		t.Fatal(err)
	}
	twiceID, err := twice.ID()
	if err != nil {
		t.Fatal(err)
	}
	if onceID != twiceID {
		t.Fatal("merge is not idempotent")
	}

	// The merged aggregate equals the in-process multi-seed aggregate point
	// for point: same partials, same summaries.
	merged, err := Merge(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Points) != len(combined.Points) {
		t.Fatalf("merged has %d points, combined %d", len(merged.Points), len(combined.Points))
	}
	for i, p := range merged.Points {
		q := combined.Points[i]
		if p.Key() != q.Key() {
			t.Fatalf("point %d key %s != %s", i, p.Key(), q.Key())
		}
		if p.Summary != q.Summary {
			t.Fatalf("point %s: merged summary %+v != combined %+v", p.Key(), p.Summary, q.Summary)
		}
		if !bytes.Equal(aggJSON(t, p), aggJSON(t, q)) {
			t.Fatalf("point %s: merged partial differs from combined partial", p.Key())
		}
	}
}

// aggJSON is the canonical JSON of a point's partial: the bytes Encode
// hashes into the record ID and Equivalent compares.
func aggJSON(t *testing.T, p Point) []byte {
	t.Helper()
	data, err := json.Marshal(p.Agg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPointStateMergeExact is the exactness pin for `ledgerctl merge`:
// however the replication multiset is split into per-shard records, each
// round-tripped through its on-disk bytes, and whatever order the records
// are merged in, every point's partial and summary are identical, bit for
// bit, to the record one recorder holding all replications produces.
func TestPointStateMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reps := make([]stats.Replication, 24)
	for i := range reps {
		reps[i] = stats.Replication{
			Seed:       rng.Uint64() % 1000,
			Value:      rng.Float64() * 5,
			DelayP50:   rng.Float64() * 100,
			DelayP95:   rng.Float64() * 500,
			DelayP99:   rng.Float64() * 900,
			DelayCount: rng.Int63n(10000),
		}
	}
	record := func(reps []stats.Replication) *Record {
		agg := &stats.PointAggregate{}
		for _, r := range reps {
			agg.Add(r)
		}
		rec := NewRecorder()
		rec.RecordAggregate("fig3", "DB-DP", 0.5, "deficiency", BetterLower, agg)
		out, err := rec.Finalize("figures", "shard", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	whole := record(reps).Points[0]

	splits := [][]int{
		{24},         // one shard
		{1, 23},      // singleton first
		{8, 8, 8},    // even thirds
		{23, 1},      // singleton last
		{5, 7, 3, 9}, // ragged
	}
	for si, sizes := range splits {
		// One record per shard, round-tripped through its canonical bytes,
		// then merged in reverse order to stress order-independence.
		var shards []*Record
		at := 0
		for _, size := range sizes {
			data, err := record(reps[at : at+size]).Encode()
			if err != nil {
				t.Fatal(err)
			}
			at += size
			back, err := DecodeRecord(data)
			if err != nil {
				t.Fatal(err)
			}
			shards = append([]*Record{back}, shards...)
		}
		merged, err := Merge(shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Points) != 1 {
			t.Fatalf("split %d: merged record has %d points", si, len(merged.Points))
		}
		got := merged.Points[0]
		if !bytes.Equal(aggJSON(t, got), aggJSON(t, whole)) {
			t.Fatalf("split %d: merged partial differs from single-recorder partial", si)
		}
		if got.Summary != whole.Summary {
			t.Fatalf("split %d: merged summary %+v != single-recorder summary %+v",
				si, got.Summary, whole.Summary)
		}
	}
}

func mustMergedID(t *testing.T, recs []*Record, ids []string) string {
	t.Helper()
	m, err := Merge(recs, ids)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestMergeRejectsDirectionConflict(t *testing.T) {
	a := testRecord(t, []uint64{1}, 0.2)
	b := testRecord(t, []uint64{2}, 0.2)
	b.Points[0].Better = BetterHigher
	if _, err := Merge([]*Record{a, b}, nil); err == nil {
		t.Fatal("merge accepted conflicting directions")
	}
}

func TestDiffSelfIsClean(t *testing.T) {
	rec := testRecord(t, []uint64{1, 2, 3}, 0.2)
	rep, err := Diff(rec, rec, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegression() {
		t.Fatalf("self-diff reports %d regressions", rep.Regressions)
	}
	for _, v := range rep.Points {
		if v.Significant || v.Regression || v.Improved || v.DelayRegression {
			t.Fatalf("self-diff point %s/%s not clean: %+v", v.Figure, v.Series, v)
		}
	}
}

// TestDiffFlagsInjectedRegression shifts every deficiency up by far more
// than the replication noise and expects the sentinel to fire; the reversed
// comparison must read as an improvement, not a regression.
func TestDiffFlagsInjectedRegression(t *testing.T) {
	base := testRecord(t, []uint64{1, 2, 3, 4}, 0.2)
	worse := testRecord(t, []uint64{1, 2, 3, 4}, 0.8)
	rep, err := Diff(base, worse, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegression() {
		t.Fatal("sentinel missed an injected regression")
	}
	if rep.Regressions != len(rep.Points) {
		t.Fatalf("only %d of %d points flagged", rep.Regressions, len(rep.Points))
	}
	back, err := Diff(worse, base, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.HasRegression() {
		t.Fatal("improvement flagged as regression")
	}
	if back.Improvements == 0 {
		t.Fatal("improvement not reported")
	}
}

// TestDiffSingleReplicationFallback exercises the relative-threshold path a
// t-test cannot cover (n=1 on both sides, e.g. bench imports).
func TestDiffSingleReplicationFallback(t *testing.T) {
	mk := func(v float64) *Record {
		rec := NewRecorder()
		rec.RecordReplication("bench", "DB-DP", 0, "ns_per_interval", BetterLower,
			stats.Replication{Value: v}, nil)
		out, err := rec.Finalize("bench", "bench", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	rep, err := Diff(mk(1000), mk(1500), DiffOptions{RelThreshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegression() {
		t.Fatal("50% single-rep growth not flagged")
	}
	rep, err = Diff(mk(1000), mk(1050), DiffOptions{RelThreshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegression() {
		t.Fatal("5% single-rep growth flagged at 10% threshold")
	}
}

func TestDiffDelayQuantileRegression(t *testing.T) {
	mk := func(p99 float64) *Record {
		rec := NewRecorder()
		rec.RecordReplication("run", "DB-DP", 0, "deficiency", BetterLower,
			stats.Replication{Seed: 1, Value: 0.2, DelayP50: 100, DelayP95: 400, DelayP99: p99, DelayCount: 500}, nil)
		out, err := rec.Finalize("run", "run", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	rep, err := Diff(mk(900), mk(2000), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRegression() {
		t.Fatal("p99 delay doubling not flagged")
	}
}

func TestBuildHistory(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(testRecord(t, []uint64{1}, 0.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(testRecord(t, []uint64{2}, 0.25)); err != nil {
		t.Fatal(err)
	}
	h, err := BuildHistory(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Enabled || len(h.Runs) != 2 {
		t.Fatalf("history: enabled=%v runs=%d", h.Enabled, len(h.Runs))
	}
	// 2 series × 1 metric on one figure -> 2 trajectories with 2 samples each.
	if len(h.Trajectories) != 2 {
		t.Fatalf("history has %d trajectories, want 2", len(h.Trajectories))
	}
	for _, tr := range h.Trajectories {
		if len(tr.Values) != 2 {
			t.Fatalf("trajectory %s/%s has %d samples, want 2", tr.Series, tr.Metric, len(tr.Values))
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := testRecord(t, []uint64{1, 2}, 0.2)
	b := testRecord(t, []uint64{1, 2}, 0.2)
	if err := Equivalent(a, b); err != nil {
		t.Errorf("identical records not equivalent: %v", err)
	}
	shifted := testRecord(t, []uint64{1, 2}, 0.8)
	if err := Equivalent(a, shifted); err == nil {
		t.Error("shifted record reported equivalent")
	}
	extra := testRecord(t, []uint64{1, 2, 3}, 0.2)
	if err := Equivalent(a, extra); err == nil {
		t.Error("extra-seed record reported equivalent")
	}

	// One ulp in one delay quantile, or the sign of a zero headline value,
	// is a different record.
	ulp := testRecord(t, []uint64{1, 2}, 0.2)
	r := &ulp.Points[0].Agg.Reps[0]
	r.DelayP95 = math.Nextafter(r.DelayP95, math.Inf(1))
	if err := Equivalent(a, ulp); err == nil {
		t.Error("records one ulp apart in DelayP95 reported equivalent")
	}
	zero := func(v float64) *Record {
		rec := NewRecorder()
		rec.RecordReplication("run", "DB-DP", 0, "deficiency", BetterLower,
			stats.Replication{Seed: 1, Value: v}, nil)
		out, err := rec.Finalize("run", "run", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := Equivalent(zero(0), zero(math.Copysign(0, -1))); err == nil {
		t.Error("records with Value 0 and -0 reported equivalent")
	}
}

func TestBuildCompare(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idA, err := store.Append(testRecord(t, []uint64{1, 2, 3}, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(testRecord(t, []uint64{1, 2, 3}, 0.3)); err != nil {
		t.Fatal(err)
	}

	// Identical records: the document carries both sides and a clean report.
	c, err := BuildCompare(store, "latest~1", "latest", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Error != "" || c.Report == nil {
		t.Fatalf("compare of identical runs: error=%q report=%v", c.Error, c.Report)
	}
	if c.Report.HasRegression() {
		t.Fatalf("self-compare found regressions: %+v", c.Report)
	}
	if c.A == nil || c.B == nil || c.A.Run.ID != idA || c.A.Ref != "latest~1" {
		t.Fatalf("sides mislabeled: a=%+v b=%+v", c.A, c.B)
	}
	if c.A.Run.Tool != "test" || c.A.Run.Points != 6 {
		t.Fatalf("side row missing identity: %+v", c.A.Run)
	}

	// A short ID prefix resolves like on the history page's compare links.
	c, err = BuildCompare(store, idA[:12], "latest", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Error != "" || c.A == nil || c.A.Run.ID != idA {
		t.Fatalf("prefix reference failed: error=%q a=%+v", c.Error, c.A)
	}

	// A genuine worsening shows up as a regression in the report.
	if _, err := store.Append(testRecord(t, []uint64{1, 2, 3}, 0.6)); err != nil {
		t.Fatal(err)
	}
	c, err = BuildCompare(store, "latest~1", "latest", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Error != "" || c.Report == nil || !c.Report.HasRegression() {
		t.Fatalf("worsened run not flagged: error=%q report=%+v", c.Error, c.Report)
	}

	// Bad references land in the document, not in the HTTP error path.
	c, err = BuildCompare(store, "latest~99", "latest", DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Error == "" || c.Report != nil {
		t.Fatalf("unresolvable reference not surfaced: %+v", c)
	}
}
