package telemetry

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"
	"testing/iotest"
)

// recordedStreams are short event streams recorded by rtmacsim: a DB-DP
// control run (`rtmacsim -intervals 4 -events testdata/control.jsonl`) and
// the two-clique scenario, which adds conflict events
// (`rtmacsim -config F -events testdata/twoclique.jsonl`, F being
// scenarios/spatial.json with "intervals": 4).
func recordedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, name := range []string{"testdata/control.jsonl", "testdata/twoclique.jsonl"} {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// decodedStream is what a run of Next returned: the events (cloned) before
// the first error, and that error (nil when the stream ended cleanly).
type decodedStream struct {
	events []Event
	err    error
}

func drain(next func() (Event, error)) decodedStream {
	var s decodedStream
	for {
		ev, err := next()
		if err == io.EOF {
			return s
		}
		if err != nil {
			s.err = err
			return s
		}
		ev.Fields = ev.Fields.Clone()
		s.events = append(s.events, ev)
	}
}

// sameEvent compares two events field by field, payload values by their
// bits so that -0 and 0 differ.
func sameEvent(a, b Event) bool {
	if a.K != b.K || a.At != b.At || a.Link != b.Link || a.Kind != b.Kind ||
		a.Check != b.Check || a.Msg != b.Msg || a.Fields.Keys() != b.Fields.Keys() ||
		a.Fields.Len() != b.Fields.Len() {
		return false
	}
	for i := range a.Fields.Len() {
		if math.Float64bits(a.Fields.Value(i)) != math.Float64bits(b.Fields.Value(i)) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkSameStream demands got match want event for event, with the same
// error text after the same count.
func checkSameStream(t *testing.T, what string, got, want decodedStream) {
	t.Helper()
	if errText(got.err) != errText(want.err) || len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events then %q, reference %d events then %q",
			what, len(got.events), errText(got.err), len(want.events), errText(want.err))
	}
	for i := range got.events {
		if !sameEvent(got.events[i], want.events[i]) {
			t.Fatalf("%s: event %d = %+v, reference %+v", what, i, got.events[i], want.events[i])
		}
	}
}

// checkSameDecode demands Decode match the reference on one payload.
func checkSameDecode(t *testing.T, d *Decoder, ref *refDecoder, payload []byte) {
	t.Helper()
	got, gotErr := d.Decode(payload)
	want, wantErr := ref.Decode(payload)
	if errText(gotErr) != errText(wantErr) || (gotErr == nil && !sameEvent(got, want)) {
		t.Fatalf("Decode(%q) = %+v, %v; reference %+v, %v", payload, got, gotErr, want, wantErr)
	}
}

// FuzzDecoderDifferential holds the Decoder to refDecoder, encoding/json's
// reading of the same bytes: across the whole Next sequence both return the
// same events, the same count before an error and the same error text, and
// Decode agrees on every line as a payload and on the input as one payload.
// The stream runs twice, once read one byte at a time to exercise the line
// buffer.
func FuzzDecoderDifferential(f *testing.F) {
	for _, s := range recordedStreams(f) {
		f.Add(s)
	}
	const hdr = `{"schema":"rtmac.events","schema_version":1}` + "\n"
	const tx = `{"k":3,"t":6120,"link":2,"kind":"tx","f":{"dur":120,"empty":0,"outcome":1}}`
	for _, s := range []string{
		hdr + tx + "\n",
		// Key folding: K and the Kelvin sign (U+212A) both match "k".
		`{"K":1}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","K":9}`,
		"{\"\u212a\":1,\"t\":2,\"link\":0,\"kind\":\"tx\"}",
		`{"\u212a":1,"t":2,"link":0,"kind":"tx"}`,
		"{\"k\":1,\"t\":2,\"link\":0,\"kind\":\"x\",\"f\":{\"K\":1,\"\u212a\":2,\"k\":3}}",
		// Duplicate, unsorted, null and empty payloads.
		`{"k":1,"k":2,"t":2,"link":0,"kind":"tx"}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","kind":"swap"}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","f":{"a":1,"a":2}}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","f":{"b":1,"a":2}}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","f":null}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","f":{}}`,
		`{"k":1,"t":2,"link":0,"kind":"tx","f":{"":1,"a":2}}`,
		// Whitespace, CRLF and blank lines.
		hdr + " " + tx + "\n" + tx + "  \t\n",
		hdr + `{"k": 1, "t":2,"link":0,"kind":"tx"}` + "\n" + tx + "\n",
		"{\"schema\":\"rtmac.events\",\"schema_version\":1}\r\n" + tx + "\r\n" + tx + "\r\n",
		"\n\n" + hdr + "\n" + tx + "\n\n \n" + tx,
		" \t" + hdr + tx,
		// Framing: two values on a line, one value on two lines.
		`{"k":0}{"k":1}` + "\n" + tx + "\n",
		hdr + tx + tx + "\n" + tx + "\n",
		hdr + `{"k":3,"t":6120,` + "\n" + `"link":2,"kind":"tx"}` + "\n" + tx + "\n",
		hdr + tx + "\n" + `{"k":3,"t":6120,"link":2`,
		hdr + tx + "\n" + tx + "x\n" + tx + "\n",
		hdr + tx + "\n[1,2]\n" + tx + "\n",
		hdr + tx + "\nnull\n5\n" + tx + "\n",
		// Numbers: signed zeros, range, long integers, fractions in k.
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":-0,"b":-0.0,"c":0,"d":-0e5}}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":1e400}}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":-1e400}}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":1e-400,"b":5e-324,"c":1e-7,"d":1e+21,"e":1E21}}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":1234567890123456,"b":12345678901234567,"c":123456789012345678901,"d":999999999999999,"e":9007199254740993}}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"a":01,"b":1.,"c":.5,"d":1e,"e":+1,"f":-}}`,
		`{"k":9223372036854775807,"t":-9223372036854775808,"link":-1,"kind":"x"}`,
		`{"k":9223372036854775808,"t":2,"link":0,"kind":"x"}`,
		`{"k":1,"t":-9223372036854775809,"link":0,"kind":"x"}`,
		`{"k":1,"t":2,"link":99999999999999999999,"kind":"x"}`,
		`{"k":1.0,"t":2,"link":0,"kind":"x"}`,
		`{"k":1e2,"t":2,"link":0,"kind":"x"}`,
		`{"k":-0,"t":00,"link":0,"kind":"x"}`,
		// Strings: escapes, invalid UTF-8, empty check.
		`{"k":1,"t":2,"link":0,"kind":"tx"}`,
		`{"k":1,"t":2,"link":0,"kind":"alert","check":"burn_rate","msg":"link 3 < 4"}`,
		`{"k":1,"t":2,"link":0,"kind":"alert","check":"a\"b","msg":"\ud800"}`,
		"{\"k\":1,\"t\":2,\"link\":0,\"kind\":\"bad\xff\",\"check\":\"c\xc3\",\"msg\":\"m\xed\xa0\x80\"}",
		"{\"k\":1,\"t\":2,\"link\":0,\"kind\":\"é漢字\",\"msg\":\"<&> \"}",
		"{\"k\":1,\"t\":2,\"link\":0,\"kind\":\"ctl\x01\"}",
		`{"k":1,"t":2,"link":0,"kind":"violation","check":""}`,
		`{"k":1,"t":2,"link":0,"kind":"violation","check":"c","msg":""}`,
		`{"k":1,"t":2,"link":0,"kind":"violation","msg":"m","check":"c"}`,
		`{"k":1,"t":2,"link":0,"kind":"x","f":{"ab":1}}`,
		// Headers: none, unsupported, foreign, malformed.
		tx + "\n" + tx + "\n",
		`{"schema":"rtmac.events","schema_version":99}` + "\n" + tx + "\n",
		`{"schema":"rtmac.journeys","schema_version":1}` + "\n" + tx + "\n",
		`{"schema":"rtmac.events","schema_version":"1"}` + "\n" + tx + "\n",
		`{"schema":5}` + "\n" + tx + "\n",
		hdr + hdr + tx + "\n",
		"",
		"\n \n",
		"not json at all\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		want := drain(newRefDecoder(bytes.NewReader(input)).Next)
		checkSameStream(t, "Next", drain(NewDecoder(bytes.NewReader(input)).Next), want)
		checkSameStream(t, "Next byte by byte",
			drain(NewDecoder(iotest.OneByteReader(bytes.NewReader(input))).Next), want)

		var d Decoder
		var ref refDecoder
		checkSameDecode(t, &d, &ref, input)
		for _, line := range bytes.Split(input, []byte("\n")) {
			checkSameDecode(t, &d, &ref, line)
		}
	})
}
