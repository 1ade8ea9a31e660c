package ledger

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rtmac/internal/stats"
	"rtmac/internal/telemetry"
)

// pinnedRecord builds a fixed record through the Recorder: two series, one
// replication with delay quantiles and a P² delay sketch, and one
// replication that saw no deliveries, both tagged with seed.
func pinnedRecord(t testing.TB, seed uint64) *Record {
	t.Helper()
	sk, err := stats.NewQuantileSketch(0.5, 0.95, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1250, 980.5, 3100.25, 1402, 2210.75, 1777, 4099.125, 1001} {
		sk.Add(x)
	}
	st := sk.State()
	value := 0.1 // folded at run time: 0.1+0.2 needs all 17 digits
	rec := NewRecorder()
	rec.RecordReplication("run", "DB-DP", 0.3, "deficiency", BetterLower, stats.Replication{
		Seed:       seed,
		Value:      value + 0.2,
		DelayP50:   sk.Quantile(0.5),
		DelayP95:   sk.Quantile(0.95),
		DelayP99:   sk.Quantile(0.99),
		DelayCount: sk.Count(),
	}, &st)
	rec.RecordReplication("run", "LDF", 0.3, "deficiency", BetterLower,
		stats.Replication{Seed: seed, Value: 2.0 / 3}, nil)
	out, err := rec.Finalize("run", "pinned", nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

const (
	pinnedID    = "6666e6921464120ad40945981f02aa0796264505379b69073fe354b38396a887"
	pinnedBytes = `{"schema":1,"kind":"run","scenario":"pinned","seeds":[7],"points":[{"figure":"run","series":"DB-DP","x":0.3,"metric":"deficiency","better":"lower","agg":{"reps":[{"seed":7,"value":0.30000000000000004,"delay_p50":1722.25,"delay_p95":2224.1805555555557,"delay_p99":2224.1805555555557,"delay_count":8}]}` +
		`,"sketch":{"quantiles":[0.5,0.95,0.99],"estimators":[{"p":0.5,"count":8,"q":[980.5,1250,1722.25,2210.75,4099.125],"n":[1,3,5,6,8],"np":[1,2.75,4.5,6.25,8]},{"p":0.95,"count":8,"q":[980.5,1497.25,2224.1805555555557,3003.0416666666665,4099.125],"n":[1,4,6,7,8],"np":[1,4.325,7.65,7.824999999999999,8]},{"p":0.99,"count":8,"q":[980.5,1497.25,2224.1805555555557,3003.0416666666665,4099.125],"n":[1,4,6,7,8],"np":[1,4.465,7.930000000000001,7.965000000000001,8]}],"acc":{"n":8,"mean":1977.578125,"m2":8664483.716796875},"min":980.5,"max":4099.125}` +
		`,"summary":{"n":1,"mean":0.30000000000000004,"stderr":0,"ci95_half":0,"delay_p50":1722.25,"delay_p95":2224.1805555555557,"delay_p99":2224.1805555555557,"delay_count":8}` +
		`},{"figure":"run","series":"LDF","x":0.3,"metric":"deficiency","better":"lower","agg":{"reps":[{"seed":7,"value":0.6666666666666666}]}` +
		`,"summary":{"n":1,"mean":0.6666666666666666,"stderr":0,"ci95_half":0}}]}`
)

// TestRecordEncodingPinned pins the canonical bytes and content address of a
// fixed record, so a change to any serialized statistics type, its field
// order, tags or float formatting shows up as a changed record ID.
func TestRecordEncodingPinned(t *testing.T) {
	rec := pinnedRecord(t, 7)
	data, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id, err := rec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != pinnedBytes {
		t.Errorf("record bytes changed:\n got %s\nwant %s", data, pinnedBytes)
	}
	if id != pinnedID {
		t.Errorf("record ID changed: got %s, want %s", id, pinnedID)
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the decoder for records on
// disk. It must never panic, and any record it accepts must re-encode to
// canonical bytes that decode and re-encode identically. The seeds are
// valid records (single-run, merged, with a manifest) and records broken in
// the ways a torn write or a hand edit breaks them.
func FuzzDecodeRecord(f *testing.F) {
	pinned := pinnedRecord(f, 7)
	merged, err := Merge([]*Record{pinned, pinnedRecord(f, 8)}, []string{pinnedID})
	if err != nil {
		f.Fatal(err)
	}
	withManifest := pinnedRecord(f, 9)
	withManifest.Manifest = &telemetry.Manifest{
		Tool: "rtmacsim", Seed: 9, Protocol: "dbdp", GoVersion: "go1.22",
		Config:  map[string]string{"p": "0.7"},
		Started: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), Elapsed: time.Second,
	}
	for _, rec := range []*Record{pinned, merged, withManifest} {
		data, err := rec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(pinnedBytes[:len(pinnedBytes)/2]))
	f.Add([]byte(strings.Replace(pinnedBytes, `"schema":1`, `"schema":2`, 1)))
	f.Add([]byte(strings.Replace(pinnedBytes, `"LDF"`, `"DB-DP"`, 1)))
	f.Add([]byte(strings.Replace(pinnedBytes, `"value":0.6666666666666666`, `"value":1e999`, 1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		first, err := rec.Encode()
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := DecodeRecord(first)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatalf("re-decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical bytes not stable:\n%s\n%s", first, second)
		}
	})
}
