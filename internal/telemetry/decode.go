package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rtmac/internal/sim"
)

// event is the JSON layout of one event line with the payload as a map.
// Decoding it with encoding/json keeps its rules for key matching, duplicate
// keys and type errors (which name the struct "event").
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
// It reuses its payload map, interns each event's key set, and returns
// events whose Fields values live in the decoder's scratch: the next call
// overwrites them, so Clone what you keep.
type Decoder struct {
	dec     *json.Decoder
	started bool
	n       int64

	wire  event
	names []string
	vals  []float64
	key   []byte
}

// NewDecoder returns a decoder reading a JSONL event stream from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{dec: json.NewDecoder(r)}
}

// Next returns the stream's next event, or io.EOF after the last one. A
// leading schema header (written by NewJSONL) is validated and skipped;
// headerless legacy streams decode as before. A header carrying a different
// schema or an unsupported version is an error, not a zero-valued event.
func (d *Decoder) Next() (Event, error) {
	if !d.started {
		d.started = true
		var raw json.RawMessage
		if err := d.dec.Decode(&raw); err != nil {
			return Event{}, d.wrap(err)
		}
		if h, ok := ParseHeader(raw); ok {
			if err := h.Check(EventStreamSchema, EventStreamVersion); err != nil {
				return Event{}, err
			}
		} else {
			ev, err := d.Decode(raw)
			if err != nil {
				return Event{}, d.wrap(err)
			}
			return ev, nil
		}
	}
	d.reset()
	if err := d.dec.Decode(&d.wire); err != nil {
		return Event{}, d.wrap(err)
	}
	return d.convert(), nil
}

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
	d.n++
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
// the error. The events' values share a few large allocations.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	d := NewDecoder(r)
	var (
		out  []Event
		slab valueSlab
	)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		ev.Fields = slab.keep(ev.Fields)
		out = append(out, ev)
	}
}
