// Package trace records packet-level transmission histories from a
// simulated medium and renders them as text logs or per-interval ASCII
// timelines. It exists for debugging protocol behaviour and for making the
// collision-freedom and priority-ordering of the DP protocol visible in
// examples and documentation.
package trace

import (
	"fmt"
	"io"
	"strings"

	"rtmac/internal/medium"
	"rtmac/internal/ring"
	"rtmac/internal/sim"
)

// Record is one completed transmission.
type Record struct {
	Link    int
	Start   sim.Time
	End     sim.Time
	Empty   bool
	Outcome medium.Outcome
}

// Recorder captures transmissions from a medium into a bounded ring buffer.
type Recorder struct {
	ring  ring.Ring[Record]
	total int64
}

// NewRecorder returns a recorder keeping the most recent capacity records.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: capacity %d must be positive", capacity)
	}
	return &Recorder{ring: ring.New[Record](capacity)}, nil
}

// Attach registers the recorder as one of the medium's trace hooks.
func (r *Recorder) Attach(med *medium.Medium) {
	med.AddTrace(func(tx medium.Transmission, outcome medium.Outcome) {
		r.add(Record{
			Link:    tx.Link,
			Start:   tx.Start,
			End:     tx.End,
			Empty:   tx.Empty,
			Outcome: outcome,
		})
	})
}

func (r *Recorder) add(rec Record) {
	*r.ring.Push() = rec
	r.total++
}

// Total returns how many transmissions were observed, including evicted ones.
func (r *Recorder) Total() int64 { return r.total }

// Snapshot returns the retained transmissions in arrival order, oldest
// first, regardless of how often the ring has wrapped. The returned slice is
// a copy and safe to hold across further recording.
func (r *Recorder) Snapshot() []Record { return r.ring.Slice() }

// Records returns the retained transmissions in chronological order. Since
// records are added as transmissions complete, chronological order is
// arrival order; Records is Snapshot under its historical name.
func (r *Recorder) Records() []Record { return r.Snapshot() }

// WriteLog renders the retained records one per line.
func (r *Recorder) WriteLog(w io.Writer) error {
	for _, rec := range r.Records() {
		kind := "data "
		if rec.Empty {
			kind = "empty"
		}
		if _, err := fmt.Fprintf(w, "%10s - %10s  link %2d  %s  %s\n",
			rec.Start, rec.End, rec.Link, kind, rec.Outcome); err != nil {
			return err
		}
	}
	return nil
}

// RenderTimeline draws the records that overlap [from, to) as one ASCII lane
// per link: each column is (to-from)/width of simulated time, 'D' marks a
// delivered data exchange, 'x' a channel loss, 'C' a collision, 'e' an empty
// frame, and '.' idle time.
func RenderTimeline(w io.Writer, records []Record, from, to sim.Time, width int) error {
	if to <= from {
		return fmt.Errorf("trace: empty window [%v, %v)", from, to)
	}
	if width < 10 {
		width = 80
	}
	maxLink := -1
	for _, rec := range records {
		if rec.Link > maxLink {
			maxLink = rec.Link
		}
	}
	if maxLink < 0 {
		return fmt.Errorf("trace: no records")
	}
	lanes := make([][]byte, maxLink+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	span := float64(to - from)
	for _, rec := range records {
		if rec.End <= from || rec.Start >= to {
			continue
		}
		glyph := byte('D')
		switch {
		case rec.Outcome == medium.Collided:
			glyph = 'C'
		case rec.Empty:
			glyph = 'e'
		case rec.Outcome == medium.Lost:
			glyph = 'x'
		}
		lo := int(float64(rec.Start-from) / span * float64(width))
		hi := int(float64(rec.End-from) / span * float64(width))
		if lo < 0 {
			lo = 0
		}
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			lanes[rec.Link][c] = glyph
		}
	}
	fmt.Fprintf(w, "timeline %v .. %v (one column = %.1fus)\n", from, to, span/float64(width))
	for link, lane := range lanes {
		if _, err := fmt.Fprintf(w, "link %2d |%s|\n", link, lane); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "legend: D delivered, x lost, C collided, e empty frame, . idle")
	return err
}
