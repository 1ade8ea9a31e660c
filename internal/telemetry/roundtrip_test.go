package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// kindExemplars returns one realistic event per canonical kind, with the
// payload shapes the simulator's instrumentation points actually emit (see
// the kind constants in event.go and docs/OBSERVABILITY.md).
func kindExemplars() []Event {
	return []Event{
		{K: 3, At: 6120, Link: 2, Kind: EventTx,
			Fields: FieldsOf(map[string]float64{"dur": 120, "empty": 0, "outcome": 1})},
		{K: 3, At: 8000, Link: -1, Kind: EventInterval,
			Fields: FieldsOf(map[string]float64{"arrivals": 6, "served": 4, "pending": 9})},
		{K: 3, At: 8000, Link: -1, Kind: EventSwap,
			Fields: FieldsOf(map[string]float64{"pos": 2, "down": 5, "up": 1, "accepted": 1})},
		{K: 3, At: 8000, Link: -1, Kind: EventDebt,
			Fields: FieldsOf(map[string]float64{"max": 2.5, "mean": 0.75, "positive": 4})},
		{K: 4, At: 8000, Link: 7, Kind: EventBackoff,
			Fields: FieldsOf(map[string]float64{"slots": 3})},
		{K: 4, At: 10000, Link: -1, Kind: EventPriority,
			Fields: FieldsOf(map[string]float64{"l0": 2, "l1": 1, "l2": 3})},
		{K: 4, At: 10000, Link: 0, Kind: EventViolation,
			Check: "debt-nonnegative", Msg: "link 0 debt -0.25 after update",
			Fields: FieldsOf(map[string]float64{"debt": -0.25})},
		{K: 5, At: 12000, Link: -1, Kind: EventStall,
			Fields: FieldsOf(map[string]float64{"budget_ns": 1e6, "elapsed_ns": 3e6,
				"overrun_ns": 2e6, "gc_pauses": 1, "cause": 1})},
		{K: 1200, At: 9600000, Link: 3, Kind: EventAlert,
			Check: "burn_rate", Msg: "link 3 burning 2.1x deadline-miss budget",
			Fields: FieldsOf(map[string]float64{"severity": 2, "state": 1, "value": 2.1,
				"threshold": 1, "window": 1000, "scope": 0})},
	}
}

// TestEventRoundTripAllKinds pushes one event of every canonical kind through
// encode -> decode -> re-encode and demands the two encodings be
// byte-identical (including the schema header). This is the property the
// rundiff engine's byte-compare fast path rests on: any decode/encode
// asymmetry would make a re-encoded stream diff against its own source.
func TestEventRoundTripAllKinds(t *testing.T) {
	in := kindExemplars()
	kinds := map[string]bool{}
	for _, ev := range in {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{EventTx, EventInterval, EventSwap, EventDebt,
		EventBackoff, EventPriority, EventViolation, EventStall, EventAlert} {
		if !kinds[want] {
			t.Fatalf("exemplar list missing kind %q", want)
		}
	}

	encode := func(evs []Event) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := encode(in)
	decoded, err := DecodeJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, decoded) {
		t.Fatalf("decode mismatch:\n in: %+v\nout: %+v", in, decoded)
	}
	second := encode(decoded)
	if !bytes.Equal(first, second) {
		t.Errorf("re-encode not byte-identical:\nfirst:  %q\nsecond: %q", first, second)
	}
}

// TestEventRoundTripPerKind repeats the byte-identity check one kind at a
// time, so a failure names the offending kind instead of the whole batch.
func TestEventRoundTripPerKind(t *testing.T) {
	for _, ev := range kindExemplars() {
		ev := ev
		t.Run(ev.Kind, func(t *testing.T) {
			var buf bytes.Buffer
			sink := NewJSONL(&buf)
			sink.Emit(ev)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			decoded, err := DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) != 1 || !reflect.DeepEqual(decoded[0], ev) {
				t.Fatalf("decode mismatch: %+v, want %+v", decoded, ev)
			}
			var buf2 bytes.Buffer
			sink2 := NewJSONL(&buf2)
			sink2.Emit(decoded[0])
			if err := sink2.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, buf2.Bytes()) {
				t.Errorf("re-encode differs:\nfirst:  %q\nsecond: %q", first, buf2.Bytes())
			}
		})
	}
}

// FuzzDecodeEvents throws arbitrary text at the event-stream decoder. The
// properties under fuzz: it never panics, and anything it accepts reaches a
// fixed point after one encode — decode(encode(events)) re-encodes
// byte-identically. (The first round trip may normalize, e.g. an explicit
// empty "f":{} is dropped by omitempty; after that the bytes must be stable.)
// The seeds cover the header line, every event kind, and the malformed shapes
// the decoder must reject gracefully.
func FuzzDecodeEvents(f *testing.F) {
	var seed bytes.Buffer
	sink := NewJSONL(&seed)
	for _, ev := range kindExemplars() {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("{\"schema\":\"rtmac.events\",\"schema_version\":1}\n")
	f.Add("{\"schema\":\"rtmac.events\",\"schema_version\":99}\n")
	f.Add("{\"schema\":\"rtmac.journeys\",\"schema_version\":1}\n")
	f.Add("{\"k\":0,\"t\":120,\"link\":3,\"kind\":\"tx\",\"f\":{\"dur\":120}}\n")
	f.Add("{\"k\":1,\"t\":0,\"link\":-1,\"kind\":\"violation\",\"check\":\"c\",\"msg\":\"m\"}\n")
	f.Add("{\"k\":\"not a number\"}\n")
	f.Add("not json at all\n")
	f.Add("{\"k\":0}{\"k\":1}\n")
	encode := func(t *testing.T, evs []Event) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, payload string) {
		events, err := DecodeJSONL(strings.NewReader(payload))
		if err != nil {
			return
		}
		first := encode(t, events)
		again, err := DecodeJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(events) != len(again) {
			t.Fatalf("round trip changed length: %d -> %d", len(events), len(again))
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("encoding not a fixed point:\nfirst:  %q\nsecond: %q", first, second)
		}
	})
}
