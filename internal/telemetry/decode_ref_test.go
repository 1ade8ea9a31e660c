package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// refDecoder is the reference the Decoder is held to: every value read by
// encoding/json into the wire struct, through a json.Decoder for streams and
// json.Unmarshal for payloads, with the same header and error handling.
type refDecoder struct {
	dec     *json.Decoder
	started bool
	n       int64

	wire  event
	names []string
	vals  []float64
	key   []byte
}

func newRefDecoder(r io.Reader) *refDecoder {
	return &refDecoder{dec: json.NewDecoder(r)}
}

func (d *refDecoder) Next() (Event, error) {
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

func (d *refDecoder) wrap(err error) error {
	if err == io.EOF {
		return err
	}
	return fmt.Errorf("telemetry: decode event %d: %w", d.n, err)
}

func (d *refDecoder) Decode(data []byte) (Event, error) {
	d.reset()
	if err := json.Unmarshal(data, &d.wire); err != nil {
		return Event{}, err
	}
	return d.convert(), nil
}

func (d *refDecoder) reset() {
	f := d.wire.F
	clear(f)
	d.wire = event{F: f}
}

func (d *refDecoder) convert() Event {
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
