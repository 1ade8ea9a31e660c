package monitor

import (
	"fmt"
	"io"
	"sort"

	"rtmac/internal/ring"
	"rtmac/internal/telemetry"
)

// FlightRecorder retains the raw event stream of the most recent K intervals
// in a bounded ring, crash-recorder style: it costs a bounded amount of
// memory no matter how long the run is, and on a violation (or on demand) it
// dumps exactly the window of history that explains what happened.
type FlightRecorder struct {
	// ring holds the retained intervals in order of first appearance. An
	// evicted interval's bucket is reused for the next new one, so
	// steady-state recording allocates nothing.
	ring    ring.Ring[recBucket]
	last    *recBucket // the bucket the previous event went to; valid until the next Push
	dropped int64
	total   int64
	// pinned holds run-scoped events exempt from windowed eviction: the
	// conflict-graph edges emitted once at k=0. A dump of intervals
	// [k, k+64] without them would audit a spatial-reuse run against the
	// complete graph, so they are retained forever and written first.
	pinned []telemetry.Event
}

// recBucket is one retained interval: its events, whose field values are
// copied into vals.
type recBucket struct {
	k      int64
	events []telemetry.Event
	vals   []float64
}

// NewFlightRecorder returns a recorder keeping the most recent `intervals`
// intervals of events.
func NewFlightRecorder(intervals int) (*FlightRecorder, error) {
	if intervals <= 0 {
		return nil, fmt.Errorf("monitor: flight recorder capacity %d must be positive", intervals)
	}
	return &FlightRecorder{ring: ring.New[recBucket](intervals)}, nil
}

// Emit implements telemetry.Sink. Events are grouped by interval index; when
// a new interval appears beyond the capacity, the oldest interval's events
// are dropped. Field values are copied (the Sink contract does not grant
// ownership).
func (r *FlightRecorder) Emit(ev telemetry.Event) {
	r.total++
	if ev.Kind == telemetry.EventConflict {
		ev.Fields = ev.Fields.Clone()
		r.pinned = append(r.pinned, ev)
		return
	}
	b := r.bucket(ev.K)
	start := len(b.vals)
	b.vals = append(b.vals, ev.Fields.Values()...)
	ev.Fields = telemetry.MakeFields(ev.Fields.Keys(), b.vals[start:len(b.vals):len(b.vals)])
	b.events = append(b.events, ev)
}

// bucket returns interval k's bucket, starting one — and evicting the oldest
// interval when the ring is full — if k is not retained.
func (r *FlightRecorder) bucket(k int64) *recBucket {
	if r.last != nil && r.last.k == k {
		return r.last
	}
	for i := 0; i < r.ring.Len(); i++ {
		if b := r.ring.At(i); b.k == k {
			r.last = b
			return b
		}
	}
	evicting := r.ring.Len() == r.ring.Cap()
	b := r.ring.Push()
	if evicting {
		r.dropped += int64(len(b.events))
	}
	b.k, b.events, b.vals = k, b.events[:0], b.vals[:0]
	r.last = b
	return b
}

// Total returns how many events were observed, including dropped ones.
func (r *FlightRecorder) Total() int64 { return r.total }

// Dropped returns how many events fell out of the retention window.
func (r *FlightRecorder) Dropped() int64 { return r.dropped }

// Intervals returns how many intervals are currently retained.
func (r *FlightRecorder) Intervals() int { return r.ring.Len() }

// Events returns the retained events: pinned run-scoped events (the conflict
// topology) first, then the windowed intervals oldest first, in emission
// order within each interval. The slice and the events' values are copies.
func (r *FlightRecorder) Events() []telemetry.Event {
	byK := make([]*recBucket, r.ring.Len())
	for i := range byK {
		byK[i] = r.ring.At(i)
	}
	sort.Slice(byK, func(i, j int) bool { return byK[i].k < byK[j].k })
	out := append([]telemetry.Event(nil), r.pinned...)
	for _, b := range byK {
		for _, ev := range b.events {
			ev.Fields = ev.Fields.Clone()
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL dumps the retained window as JSON Lines — the same format the
// live event stream uses, so `rtmacsim -checkevents` audits a dump directly.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	var line []byte
	for _, ev := range r.Events() {
		var err error
		if line, err = ev.AppendJSON(line[:0]); err == nil {
			_, err = w.Write(append(line, '\n'))
		}
		if err != nil {
			return fmt.Errorf("monitor: flight recorder dump: %w", err)
		}
	}
	return nil
}

// WriteTimeline renders the retained window as a human-readable per-interval
// log, one event per line, for post-mortem reading without tooling.
func (r *FlightRecorder) WriteTimeline(w io.Writer) error {
	events := r.Events()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no events retained")
		return err
	}
	var curK int64 = -1 << 62
	for _, ev := range events {
		if ev.K != curK {
			curK = ev.K
			if _, err := fmt.Fprintf(w, "== interval %d ==\n", curK); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  %s\n", formatEvent(ev)); err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events beyond the %d-interval window were dropped)\n",
			r.dropped, r.ring.Cap()); err != nil {
			return err
		}
	}
	return nil
}

// formatEvent renders one event as a timeline line, with kind-aware phrasing
// for the canonical kinds and a sorted field dump for everything else.
func formatEvent(ev telemetry.Event) string {
	switch ev.Kind {
	case telemetry.EventTx:
		what := "data"
		if ev.Fields.Get("empty") == 1 {
			what = "empty"
		}
		outcome := [...]string{"delivered", "lost", "collided"}
		oc := "?"
		if o := int(ev.Fields.Get("outcome")); o >= 0 && o < len(outcome) {
			oc = outcome[o]
		}
		return fmt.Sprintf("t=%-8v link=%-3d tx %s %vµs %s",
			ev.At, ev.Link, what, ev.Fields.Get("dur"), oc)
	case telemetry.EventBackoff:
		return fmt.Sprintf("t=%-8v link=%-3d backoff %v slots", ev.At, ev.Link, ev.Fields.Get("slots"))
	case telemetry.EventSwap:
		verdict := "rejected"
		if ev.Fields.Get("accepted") == 1 {
			verdict = "accepted"
		}
		return fmt.Sprintf("t=%-8v swap pos=%v links %v<->%v %s",
			ev.At, ev.Fields.Get("pos"), ev.Fields.Get("down"), ev.Fields.Get("up"), verdict)
	case telemetry.EventDebt:
		return fmt.Sprintf("t=%-8v debt max=%v mean=%v positive=%v",
			ev.At, ev.Fields.Get("max"), ev.Fields.Get("mean"), ev.Fields.Get("positive"))
	case telemetry.EventInterval:
		return fmt.Sprintf("t=%-8v interval arrivals=%v served=%v expired=%v",
			ev.At, ev.Fields.Get("arrivals"), ev.Fields.Get("served"), ev.Fields.Get("expired"))
	case telemetry.EventViolation:
		return fmt.Sprintf("t=%-8v VIOLATION [%s] %s", ev.At, ev.Check, ev.Msg)
	default:
		line := fmt.Sprintf("t=%-8v link=%-3d %s", ev.At, ev.Link, ev.Kind)
		if ev.Fields.Len() > 0 {
			line += " " + ev.Fields.String()
		}
		return line
	}
}

var _ telemetry.Sink = (*FlightRecorder)(nil)
