package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"rtmac/internal/sim"
)

// event is the JSON layout of one event line with the payload as a map: what
// the encoding/json fallback decodes into. Decoding it with encoding/json
// keeps its rules for key matching, duplicate keys and type errors (which
// name the struct "event").
type event struct {
	K     int64              `json:"k"`
	At    sim.Time           `json:"t"`
	Link  int                `json:"link"`
	Kind  string             `json:"kind"`
	F     map[string]float64 `json:"f,omitempty"`
	Check string             `json:"check,omitempty"`
	Msg   string             `json:"msg,omitempty"`
}

// Decoder reads events back from their JSON encoding: a JSONL stream as
// NewJSONL writes it (Next), or one encoded event at a time, such as an SSE
// data payload (Decode). It is the one decoder every stream reader shares.
//
// A line or payload holding exactly the bytes AppendJSON writes (optionally
// followed by whitespace) is decoded by hand without allocating: integers
// and numbers are parsed in place, canonical kinds come back as their
// constants, and the payload's key section resolves to its interned *Keys
// through a cache local to the decoder. Anything else goes to encoding/json,
// so its rules — key folding, duplicate keys, null, escapes, invalid UTF-8,
// number range, error text and framing — hold by construction: a line that
// is one complete JSON value is unmarshaled alone, a payload likewise, and a
// stream that stops being one value per line is read by a json.Decoder from
// that line on.
//
// Returned events' Fields values live in the decoder's scratch: the next
// call overwrites them, so Clone what you keep.
type Decoder struct {
	r    io.Reader
	buf  []byte // buf[off:] is read but not yet consumed
	off  int
	scan int   // buf[off:scan] holds no newline
	line int   // offset of the last line handed out
	rerr error // the reader's error, once it returned one

	dec     *json.Decoder // the rest of the stream once it is not line-framed
	started bool          // the first value (a possible header) is consumed
	n       int64

	wire    event
	names   []string
	vals    []float64
	key     []byte
	schemas map[string]*Keys
}

// NewDecoder returns a decoder reading a JSONL event stream from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Next returns the stream's next event, or io.EOF after the last one. A
// leading schema header (written by NewJSONL) is validated and skipped;
// headerless legacy streams decode as before. A header carrying a different
// schema or an unsupported version is an error, not a zero-valued event.
func (d *Decoder) Next() (Event, error) {
	ev, err := d.next()
	if err != nil {
		return Event{}, err
	}
	d.n++
	return ev, nil
}

func (d *Decoder) next() (Event, error) {
	for d.dec == nil {
		line, ok := d.readLine()
		switch {
		case !ok && d.rerr == io.EOF:
			return Event{}, io.EOF
		case !ok:
			d.fallback()
		case isSpace(line):
		default:
			if ev, ok := d.canonical(line); ok {
				d.started = true
				return ev, nil
			}
			if !json.Valid(line) {
				d.fallback()
			} else if ev, header, err := d.value(line); !header || err != nil {
				return ev, err
			}
		}
	}
	if !d.started {
		var raw json.RawMessage
		if err := d.dec.Decode(&raw); err != nil {
			d.started = true
			return Event{}, d.wrap(err)
		}
		if ev, header, err := d.value(raw); !header || err != nil {
			return ev, err
		}
	}
	d.reset()
	if err := d.dec.Decode(&d.wire); err != nil {
		return Event{}, d.wrap(err)
	}
	return d.convert(), nil
}

// value decodes one complete JSON value through encoding/json, except that
// the stream's first value may be its schema header, which is checked
// instead and reported as header.
func (d *Decoder) value(v []byte) (ev Event, header bool, err error) {
	if !d.started {
		d.started = true
		if h, ok := ParseHeader(v); ok {
			return Event{}, true, h.Check(EventStreamSchema, EventStreamVersion)
		}
	}
	if ev, err = d.unmarshal(v); err != nil {
		return Event{}, false, d.wrap(err)
	}
	return ev, false, nil
}

// readLine returns the next line without its newline (the last one may lack
// it). The slice is valid until the next call. ok is false once the reader
// has failed or ended with nothing left to hand out.
func (d *Decoder) readLine() (line []byte, ok bool) {
	for {
		if i := bytes.IndexByte(d.buf[d.scan:], '\n'); i >= 0 {
			end := d.scan + i
			d.line, d.off, d.scan = d.off, end+1, end+1
			return d.buf[d.line:end], true
		}
		d.scan = len(d.buf)
		if d.rerr != nil {
			if d.rerr != io.EOF || d.off == len(d.buf) {
				d.line = d.off
				return nil, false
			}
			d.line, d.off = d.off, len(d.buf)
			return d.buf[d.line:], true
		}
		d.fill()
	}
}

// fill moves the unconsumed bytes to the front of the buffer once a line has
// been consumed, grows the buffer when they fill it, and reads once more. A
// long line is thus copied at most once plus the doublings, however small
// the reads.
func (d *Decoder) fill() {
	if d.off > 0 {
		n := copy(d.buf, d.buf[d.off:])
		d.buf, d.scan, d.off = d.buf[:n], d.scan-d.off, 0
	}
	n := len(d.buf)
	if n == cap(d.buf) {
		d.buf = slices.Grow(d.buf, max(4096, n))
	}
	m, err := d.r.Read(d.buf[n:cap(d.buf)])
	d.buf = d.buf[:n+m]
	if err != nil {
		d.rerr = err
	}
}

// fallback hands the rest of the stream, from the last line read on, to a
// json.Decoder: the input is no longer one JSON value per line.
func (d *Decoder) fallback() {
	rest := []io.Reader{bytes.NewReader(d.buf[d.line:])}
	switch d.rerr {
	case nil:
		rest = append(rest, d.r)
	case io.EOF:
	default:
		rest = append(rest, errReader{d.rerr})
	}
	d.dec = json.NewDecoder(io.MultiReader(rest...))
	d.buf = nil
}

// errReader replays a reader's failure to the fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// wrap numbers a stream decoding error by the events decoded before it; EOF
// passes through.
func (d *Decoder) wrap(err error) error {
	if err == io.EOF {
		return err
	}
	return fmt.Errorf("telemetry: decode event %d: %w", d.n, err)
}

// Decode parses one encoded event. Errors are encoding/json's, unwrapped.
func (d *Decoder) Decode(data []byte) (Event, error) {
	if ev, ok := d.canonical(data); ok {
		return ev, nil
	}
	return d.unmarshal(data)
}

// unmarshal decodes one JSON value through encoding/json.
func (d *Decoder) unmarshal(data []byte) (Event, error) {
	d.reset()
	if err := json.Unmarshal(data, &d.wire); err != nil {
		return Event{}, err
	}
	return d.convert(), nil
}

// reset zeroes the wire record, keeping the emptied payload map for reuse.
func (d *Decoder) reset() {
	f := d.wire.F
	clear(f)
	d.wire = event{F: f}
}

// convert turns the decoded wire record into an Event, interning its key set
// and copying the payload into the value scratch in key order.
func (d *Decoder) convert() Event {
	w := &d.wire
	ev := Event{K: w.K, At: w.At, Link: w.Link, Kind: w.Kind, Check: w.Check, Msg: w.Msg}
	if len(w.F) == 0 {
		return ev
	}
	d.names = d.names[:0]
	for name := range w.F {
		d.names = append(d.names, name)
	}
	slices.Sort(d.names)
	var keys *Keys
	keys, d.key = internSorted(d.names, d.key)
	d.vals = slices.Grow(d.vals[:0], len(d.names))[:len(d.names)]
	for i, name := range d.names {
		d.vals[i] = w.F[name]
	}
	ev.Fields = Fields{keys: keys, vals: d.vals}
	return ev
}

// canonical decodes b when it is an event exactly as AppendJSON writes it —
// {"k":…,"t":…,"link":…,"kind":"…"}, then optionally "f" with strictly
// ascending keys, a non-empty "check" and a non-empty "msg" — followed by
// nothing but whitespace, and whose strings need no unescaping. For those
// bytes encoding/json would decode the same event; ok is false for anything
// else.
func (d *Decoder) canonical(b []byte) (ev Event, ok bool) {
	s := scanner{b: b, ok: true}
	s.expect(`{"k":`)
	ev.K = s.integer()
	s.expect(`,"t":`)
	ev.At = sim.Time(s.integer())
	s.expect(`,"link":`)
	link := s.integer()
	if ev.Link = int(link); int64(ev.Link) != link {
		return ev, false
	}
	s.expect(`,"kind":`)
	ev.Kind = kindOf(s.str())
	if s.accept(`,"f":{`) {
		ev.Fields = d.fields(&s)
	}
	if s.accept(`,"check":`) {
		ev.Check = string(s.nonEmptyStr())
	}
	if s.accept(`,"msg":`) {
		ev.Msg = string(s.nonEmptyStr())
	}
	s.expect(`}`)
	return ev, s.ok && isSpace(b[s.i:])
}

// fields decodes a payload object's members, just past its opening brace,
// into the value scratch; its keys must ascend strictly in byte order. The
// key section resolves to its schema through the decoder's cache, keyed by
// the length-prefixed names internSorted keys the process-wide table by.
func (d *Decoder) fields(s *scanner) Fields {
	if s.accept(`}`) {
		return Fields{}
	}
	d.key, d.vals = d.key[:0], d.vals[:0]
	var prev []byte
	for s.ok {
		name := s.str()
		if prev != nil && bytes.Compare(prev, name) >= 0 {
			s.ok = false
		}
		prev = name
		s.expect(`:`)
		d.vals = append(d.vals, s.number())
		d.key = binary.AppendUvarint(d.key, uint64(len(name)))
		d.key = append(d.key, name...)
		if !s.accept(`,`) {
			s.expect(`}`)
			break
		}
	}
	if !s.ok {
		return Fields{}
	}
	return Fields{keys: d.schema(d.key), vals: d.vals}
}

// schema returns the interned schema with table key sig, caching it.
func (d *Decoder) schema(sig []byte) *Keys {
	if k, ok := d.schemas[string(sig)]; ok {
		return k
	}
	if d.schemas == nil {
		d.schemas = make(map[string]*Keys)
	}
	k := internSig(sig)
	d.schemas[string(sig)] = k
	return k
}

// canonicalKinds are the kinds decoded to their constants.
var canonicalKinds = [...]string{EventTx, EventInterval, EventSwap, EventDebt, EventBackoff,
	EventPriority, EventViolation, EventConflict, EventStall, EventAlert}

// kindOf returns s as a string, sharing the constant for a canonical kind.
func kindOf(s []byte) string {
	for _, k := range canonicalKinds {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

// isSpace reports whether b is all JSON whitespace.
func isSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// scanner reads the canonical layout left to right. A failed step clears ok
// and leaves every later step failing too, so a parse is a straight run of
// steps with one check at the end; failed steps return zero values.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// accept consumes lit when the input continues with it. A one-byte lit is
// compared as a byte, without a call to compare memory.
func (s *scanner) accept(lit string) bool {
	if !s.ok || len(s.b)-s.i < len(lit) ||
		(len(lit) == 1 && s.b[s.i] != lit[0]) ||
		(len(lit) > 1 && string(s.b[s.i:s.i+len(lit)]) != lit) {
		return false
	}
	s.i += len(lit)
	return true
}

// expect consumes lit, failing when the input does not continue with it.
func (s *scanner) expect(lit string) {
	s.ok = s.accept(lit)
}

// str scans a JSON string that needs no unescaping — no backslash, no
// control byte, valid UTF-8 — and returns its contents.
func (s *scanner) str() []byte {
	if !s.ok || s.i == len(s.b) || s.b[s.i] != '"' {
		s.ok = false
		return nil
	}
	ascii := true
	for j := s.i + 1; j < len(s.b); j++ {
		c := s.b[j]
		if c == '"' {
			v := s.b[s.i+1 : j]
			if ascii || utf8.Valid(v) {
				s.i = j + 1
				return v
			}
			break
		}
		if c < 0x20 || c == '\\' {
			break
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	s.ok = false
	return nil
}

// nonEmptyStr is str failing on the empty string, which AppendJSON omits.
func (s *scanner) nonEmptyStr() []byte {
	v := s.str()
	if len(v) == 0 {
		s.ok = false
	}
	return v
}

// digits consumes a run of decimal digits, returning how many there were and
// their value (which wraps beyond 19 digits).
func (s *scanner) digits() (n int, u uint64) {
	j := s.i
	for ; j < len(s.b) && s.b[j]-'0' <= 9; j++ {
		u = 10*u + uint64(s.b[j]-'0')
	}
	n, s.i = j-s.i, j
	return n, u
}

// mantissa consumes the integer part of a JSON number — an optional minus,
// then 0 or a digit run without leading zero — returning its sign, digit
// count and value.
func (s *scanner) mantissa() (neg bool, n int, u uint64) {
	if !s.ok {
		return false, 0, 0
	}
	if neg = s.i < len(s.b) && s.b[s.i] == '-'; neg {
		s.i++
	}
	lead := s.i
	n, u = s.digits()
	s.ok = n == 1 || (n > 1 && s.b[lead] != '0')
	return neg, n, u
}

// integer parses a JSON integer that fits an int64, as encoding/json reads
// one into an integer field.
func (s *scanner) integer() int64 {
	neg, n, u := s.mantissa()
	switch {
	case !s.ok || n > 19:
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.ok = false
	return 0
}

// number parses a JSON number as encoding/json reads one into a float64:
// integers of up to 15 digits, which a float64 holds exactly, in place
// (keeping the sign of -0), anything else through strconv.ParseFloat. A
// value out of float64 range fails.
func (s *scanner) number() float64 {
	start := s.i
	neg, n, u := s.mantissa()
	plain := true
	if s.accept(`.`) {
		plain = false
		if k, _ := s.digits(); k == 0 {
			s.ok = false
		}
	}
	if s.accept(`e`) || s.accept(`E`) {
		plain = false
		if !s.accept(`+`) {
			s.accept(`-`)
		}
		if k, _ := s.digits(); k == 0 {
			s.ok = false
		}
	}
	switch {
	case !s.ok:
		return 0
	case plain && n <= 15:
		v := float64(u)
		if neg {
			v = -v
		}
		return v
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	s.ok = err == nil
	return v
}

// DecodeEvent parses one encoded event into an event that owns its values.
func DecodeEvent(data []byte) (Event, error) {
	var d Decoder
	ev, err := d.Decode(data)
	ev.Fields = ev.Fields.Clone()
	return ev, err
}

// UnmarshalJSON implements json.Unmarshaler through DecodeEvent.
func (ev *Event) UnmarshalJSON(data []byte) error {
	dec, err := DecodeEvent(data)
	if err != nil {
		return err
	}
	*ev = dec
	return nil
}

// DecodeJSONL parses a JSONL event stream back into events — the read side
// of the round trip, used by tests and analysis tooling. Header handling is
// Decoder.Next's. On a malformed event it returns the events before it with
// the error. The events are gathered in fixed-size blocks and copied once
// into the result, which allocates about twice the result where growing it
// by append would allocate several times; their values share a few large
// allocations.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	d := NewDecoder(r)
	var (
		blocks [][]Event
		slab   valueSlab
	)
	for {
		ev, err := d.Next()
		if err != nil {
			out := slices.Concat(blocks...)
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		if n := len(blocks); n == 0 || len(blocks[n-1]) == eventBlock {
			blocks = append(blocks, make([]Event, 0, eventBlock))
		}
		ev.Fields = slab.keep(ev.Fields)
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], ev)
	}
}

// eventBlock is the number of events DecodeJSONL gathers per block.
const eventBlock = 256
