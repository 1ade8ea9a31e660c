package monitor

import (
	"strings"
	"testing"

	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

func TestFlightRecorderEviction(t *testing.T) {
	r, err := NewFlightRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		r.Emit(txEvent(k, 0, sim.Time(k)*testInterval+300, 200, 0))
		r.Emit(intervalEvent(k, 1))
	}
	if r.Intervals() != 3 {
		t.Errorf("retained %d intervals, want 3", r.Intervals())
	}
	if r.Total() != 10 {
		t.Errorf("total %d, want 10", r.Total())
	}
	if r.Dropped() != 4 {
		t.Errorf("dropped %d, want 4", r.Dropped())
	}
	events := r.Events()
	if len(events) != 6 {
		t.Fatalf("got %d retained events, want 6", len(events))
	}
	if events[0].K != 2 || events[len(events)-1].K != 4 {
		t.Errorf("retained window spans K %d..%d, want 2..4", events[0].K, events[len(events)-1].K)
	}
}

// TestFlightRecorderInterleavedIntervals revisits retained intervals while
// the ring grows and after it wraps: each event must land in its own
// interval's bucket, and the evicted buckets' storage is reused.
func TestFlightRecorderInterleavedIntervals(t *testing.T) {
	r, err := NewFlightRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 1, 0, 2, 1, 0, 3, 2, 4, 3, 2} {
		r.Emit(intervalEvent(k, 1))
	}
	if r.Dropped() != 5 { // interval 0's three events, then interval 1's two
		t.Errorf("dropped %d, want 5", r.Dropped())
	}
	perK := map[int64]int{}
	for _, ev := range r.Events() {
		perK[ev.K]++
	}
	if len(perK) != 3 || perK[2] != 3 || perK[3] != 2 || perK[4] != 1 {
		t.Errorf("retained events per interval %v, want map[2:3 3:2 4:1]", perK)
	}
	ev := intervalEvent(5, 1)
	r.Emit(ev) // evicts interval 2 and reuses its bucket
	if allocs := testing.AllocsPerRun(2, func() { r.Emit(ev) }); allocs != 0 {
		t.Errorf("emit into a reused bucket allocates %v times", allocs)
	}
}

func TestFlightRecorderCopiesFields(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	ev := txEvent(0, 0, 300, 200, 0)
	r.Emit(ev)
	ev.Fields.Values()[telemetry.TxDur] = -1 // caller reuses the values; the recorder must not see it
	if got := r.Events()[0].Fields.Get("dur"); got != 200 {
		t.Errorf("recorder shares the caller's field values: dur = %v", got)
	}
}

func TestFlightRecorderJSONLRoundTrip(t *testing.T) {
	r, err := NewFlightRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Emit(txEvent(0, 1, 300, 200, 0))
	r.Emit(intervalEvent(0, 1))
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	decoded, err := telemetry.DecodeJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d events, want 2", len(decoded))
	}
	if decoded[0].Kind != telemetry.EventTx || decoded[0].Link != 1 {
		t.Errorf("first event = %+v", decoded[0])
	}
}

func TestFlightRecorderTimeline(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 3; k++ {
		r.Emit(txEvent(k, 0, sim.Time(k)*testInterval+300, 200, 0))
		r.Emit(swapEvent(k, 1, 0, 1, true))
		r.Emit(debtEvent(k, 1))
		r.Emit(intervalEvent(k, 1))
	}
	r.Emit(telemetry.Event{
		K: 2, At: 2900, Link: -1, Kind: telemetry.EventViolation,
		Check: "collision_free", Msg: "link 0 collided",
	})
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== interval 1 ==", "== interval 2 ==",
		"tx data", "swap", "debt max", "interval arrivals",
		"VIOLATION [collision_free] link 0 collided",
		"events beyond the 2-interval window were dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== interval 0 ==") {
		t.Error("evicted interval 0 still rendered")
	}
}

func TestFlightRecorderEmptyTimeline(t *testing.T) {
	r, err := NewFlightRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no events") {
		t.Errorf("empty timeline = %q", b.String())
	}
}

func TestNewFlightRecorderValidation(t *testing.T) {
	if _, err := NewFlightRecorder(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewFlightRecorder(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}
