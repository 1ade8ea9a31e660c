package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"rtmac/internal/sim"
)

// refEvent is the event layout with a map payload, as encoding/json writes
// and reads it: the reference the appender and decoder must match.
type refEvent struct {
	K      int64              `json:"k"`
	At     sim.Time           `json:"t"`
	Link   int                `json:"link"`
	Kind   string             `json:"kind"`
	Fields map[string]float64 `json:"f,omitempty"`
	Check  string             `json:"check,omitempty"`
	Msg    string             `json:"msg,omitempty"`
}

func refOf(ev Event) refEvent {
	return refEvent{K: ev.K, At: ev.At, Link: ev.Link, Kind: ev.Kind,
		Fields: ev.Fields.Map(), Check: ev.Check, Msg: ev.Msg}
}

// checkAppendMatchesReference demands AppendJSON produce encoding/json's
// bytes and errors for the map layout, and json.Marshal of the event (which
// validates and compacts the appender's output) agree.
func checkAppendMatchesReference(t *testing.T, ev Event) ([]byte, bool) {
	t.Helper()
	want, wantErr := json.Marshal(refOf(ev))
	got, gotErr := ev.AppendJSON([]byte("prefix"))
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendJSON dropped the destination prefix: %q", got)
	}
	got = got[len("prefix"):]
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("AppendJSON error = %v, encoding/json error = %v", gotErr, wantErr)
		}
		if len(got) != 0 {
			t.Fatalf("AppendJSON extended dst on error: %q", got)
		}
		return nil, false
	}
	if gotErr != nil {
		t.Fatalf("AppendJSON failed: %v (encoding/json wrote %s)", gotErr, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON bytes differ from encoding/json:\ngot:  %q\nwant: %q", got, want)
	}
	viaMarshal, err := json.Marshal(ev)
	if err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal(Event) = %q, %v; want %q", viaMarshal, err, want)
	}
	return got, true
}

// checkDecodeRoundTrip demands the decoder read what encoding/json reads
// from the same bytes, and that decode→encode is the identity (exactly when
// every string is valid UTF-8; otherwise after the first normalization).
func checkDecodeRoundTrip(t *testing.T, ev Event, encoded []byte) {
	t.Helper()
	dec, err := DecodeEvent(encoded)
	if err != nil {
		t.Fatalf("decoding %q: %v", encoded, err)
	}
	var ref refEvent
	if err := json.Unmarshal(encoded, &ref); err != nil {
		t.Fatalf("encoding/json rejects %q: %v", encoded, err)
	}
	if !reflect.DeepEqual(refOf(dec), ref) {
		t.Fatalf("decoded %+v, encoding/json read %+v", refOf(dec), ref)
	}
	again, err := dec.AppendJSON(nil)
	if err != nil {
		t.Fatalf("re-encoding decoded event: %v", err)
	}
	valid := utf8.ValidString(ev.Kind) && utf8.ValidString(ev.Check) && utf8.ValidString(ev.Msg)
	for i := 0; i < ev.Fields.Len(); i++ {
		valid = valid && utf8.ValidString(ev.Fields.Name(i))
	}
	if valid && !bytes.Equal(again, encoded) {
		t.Fatalf("decode→encode is not the identity:\nfirst:  %q\nsecond: %q", encoded, again)
	}
	dec2, err := DecodeEvent(again)
	if err != nil {
		t.Fatalf("decoding re-encoded %q: %v", again, err)
	}
	if third, _ := dec2.AppendJSON(nil); !bytes.Equal(third, again) {
		t.Fatalf("encoding not a fixed point:\nsecond: %q\nthird:  %q", again, third)
	}
}

// edgeValues are the floats where encoding/json's format switches or that it
// refuses.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, 1e20, 1e21, -1e21,
	123456789012345678901, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	1.0 / 3, 2.5e-10, math.NaN(), math.Inf(1), math.Inf(-1),
}

// edgeStrings exercise encoding/json's HTML-safe escaping.
var edgeStrings = []string{
	"", "plain", "<a&b>", "quote\" back\\slash", "line\u2028para\u2029", "bad\xffutf8\xc3",
	"ctl\x00\x01\x1f\b\f\n\r\t", "del\x7f", "é漢字🎉",
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, v := range edgeValues {
		ev := Event{K: 3, At: 4000, Link: -1, Kind: EventDebt,
			Fields: FieldsOf(map[string]float64{"max": v, "mean": 1, "positive": 2})}
		if enc, ok := checkAppendMatchesReference(t, ev); ok {
			checkDecodeRoundTrip(t, ev, enc)
		}
	}
	for _, s := range edgeStrings {
		ev := Event{K: -1, At: -5, Link: 1 << 40, Kind: s, Check: s, Msg: s,
			Fields: FieldsOf(map[string]float64{s: 1, "z" + s: 2})}
		if enc, ok := checkAppendMatchesReference(t, ev); ok {
			checkDecodeRoundTrip(t, ev, enc)
		}
	}
}

// TestPrioKeysByteOrder pins the σ-snapshot schema to encoding/json's map key
// order (l10 before l2) and the slot map to its inverse.
func TestPrioKeysByteOrder(t *testing.T) {
	keys, slot := PrioKeys(12)
	m := make(map[string]float64, 12)
	vals := make([]float64, 12)
	for link := 0; link < 12; link++ {
		m[PrioKey(link)] = float64(link + 1)
		vals[slot[link]] = float64(link + 1)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: EventPriority, Fields: MakeFields(keys, vals)}
	got, err := ev.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"f":`+string(want)) {
		t.Fatalf("prio payload %s, want %s", got, want)
	}
	if keys.names[2] != "l10" || keys.names[slot[2]] != "l2" {
		t.Fatalf("prio key order %v", keys.names)
	}
	if again, _ := PrioKeys(12); again != keys {
		t.Fatal("PrioKeys(12) not interned")
	}
}

// TestKeysInterning: equal key sets are one schema whichever way they are
// built, and lookups by name find every field and nothing else.
func TestKeysInterning(t *testing.T) {
	f := FieldsOf(map[string]float64{"outcome": 2, "dur": 120, "empty": 0})
	if f.Keys() != TxKeys {
		t.Fatal("FieldsOf did not intern to the static tx schema")
	}
	d, err := DecodeEvent([]byte(`{"k":0,"t":1,"link":0,"kind":"tx","f":{"empty":0,"outcome":2,"dur":120}}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Fields.Keys() != TxKeys {
		t.Fatal("decoded tx payload did not intern to the static schema")
	}
	for i, name := range []string{"dur", "empty", "outcome"} {
		if TxKeys.Index(name) != i {
			t.Errorf("Index(%q) = %d, want %d", name, TxKeys.Index(name), i)
		}
	}
	for _, name := range []string{"", "a", "durr", "zzz", "emptz"} {
		if _, ok := f.Lookup(name); ok {
			t.Errorf("Lookup(%q) found a field that is not there", name)
		}
	}
	if f.Get("dur") != 120 || f.Get("missing") != 0 {
		t.Errorf("Get: dur=%v missing=%v", f.Get("dur"), f.Get("missing"))
	}
	odd := FieldsOf(map[string]float64{"dur": 1, "extra": 2})
	if odd.Keys() == TxKeys || odd.Keys() != FieldsOf(map[string]float64{"extra": 0, "dur": 0}).Keys() {
		t.Fatal("arbitrary key sets must intern to their own shared schema")
	}
}

// TestKeysInterningConcurrent: simulations on parallel workers intern the
// same schemas at once; every goroutine must get the one shared *Keys.
func TestKeysInterningConcurrent(t *testing.T) {
	const workers = 8
	prio := make([]*Keys, workers)
	odd := make([]*Keys, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prio[w], _ = PrioKeys(23)
			ev, err := DecodeEvent([]byte(`{"k":1,"t":2,"link":0,"kind":"x","f":{"zz":1,"aa":2}}`))
			if err != nil {
				t.Error(err)
				return
			}
			odd[w] = ev.Fields.Keys()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if prio[w] != prio[0] || odd[w] != odd[0] {
			t.Fatalf("worker %d interned its own copy of a shared schema", w)
		}
	}
}

// TestDecoderReusesScratch: Next's values alias the decoder's scratch, so a
// reader keeping an event must Clone it; DecodeJSONL does that for you.
func TestDecoderReusesScratch(t *testing.T) {
	in := `{"k":0,"t":1,"link":0,"kind":"backoff","f":{"slots":3}}` + "\n" +
		`{"k":0,"t":2,"link":1,"kind":"backoff","f":{"slots":5}}` + "\n"
	d := NewDecoder(strings.NewReader(in))
	first, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Fields.Clone()
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if kept.Get("slots") != 3 {
		t.Fatalf("cloned value changed to %v", kept.Get("slots"))
	}
	all, err := DecodeJSONL(strings.NewReader(in))
	if err != nil || len(all) != 2 || all[0].Fields.Get("slots") != 3 || all[1].Fields.Get("slots") != 5 {
		t.Fatalf("DecodeJSONL = %+v, %v", all, err)
	}
}

// fuzzKinds maps a one-byte kind selector to every canonical kind.
var fuzzKinds = []string{EventTx, EventInterval, EventSwap, EventDebt, EventBackoff,
	EventPriority, EventViolation, EventConflict, EventStall, EventAlert}

// FuzzEventJSON differentially tests the hand-written codec against
// encoding/json over random events of every kind with arbitrary key sets:
// the appender's bytes and errors must equal json.Marshal of refEvent,
// the decoder must read what encoding/json reads, and decode→encode must be
// the identity. keys is split on NUL into field names; each value takes 9
// bytes of vals — a selector byte below 64 picks an edge value, otherwise the
// next 8 bytes are the float's bits.
func FuzzEventJSON(f *testing.F) {
	edge := func(idx ...byte) []byte {
		var b []byte
		for _, i := range idx {
			b = append(b, i, 0, 0, 0, 0, 0, 0, 0, 0)
		}
		return b
	}
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = append(b, 0xff)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for i := range fuzzKinds {
		f.Add(string(rune(i)), int64(i), int64(1000*i), i-1, "a\x00b\x00c", edge(byte(i), 6, 10), "", "")
	}
	f.Add("\x00", int64(3), int64(6120), 2, "dur\x00empty\x00outcome", bits(120, 0, 1), "", "")
	f.Add("\x05", int64(4), int64(10000), -1, "l0\x00l1\x00l2\x00l10\x00l11", bits(2, 1, 3, 5, 4), "", "")
	f.Add("\x06", int64(1), int64(0), 0, "tiny\x00huge\x00neg0\x00sub", edge(6, 9, 1, 12), "pin_probe", "probe <swap> & \u2028 \xff")
	f.Add("\x09", int64(1200), int64(9600000), 3, "scope\x00severity\x00state", edge(17, 18, 19), "burn_rate", "<>&")
	f.Add("custom-kind", int64(-7), int64(-1), 1<<40, "", []byte(nil), "c", "m")
	f.Add("\x01", int64(0), int64(0), 0, "<k>\x00\u2028\x00\xff", bits(1e-7, 1e21, -0.5), "", "")
	f.Fuzz(func(t *testing.T, kind string, k, at int64, link int, keys string, vals []byte, check, msg string) {
		if len(kind) == 1 && int(kind[0]) < len(fuzzKinds) {
			kind = fuzzKinds[kind[0]]
		}
		m := make(map[string]float64)
		if keys != "" {
			for i, name := range strings.Split(keys, "\x00") {
				var v float64
				if chunk := vals[min(9*i, len(vals)):min(9*i+9, len(vals))]; len(chunk) == 9 {
					if chunk[0] < 64 {
						v = edgeValues[int(chunk[0])%len(edgeValues)]
					} else {
						v = math.Float64frombits(binary.LittleEndian.Uint64(chunk[1:]))
					}
				}
				m[name] = v
			}
		}
		ev := Event{K: k, At: sim.Time(at), Link: link, Kind: kind, Fields: FieldsOf(m), Check: check, Msg: msg}
		if encoded, ok := checkAppendMatchesReference(t, ev); ok {
			checkDecodeRoundTrip(t, ev, encoded)
		}
	})
}
