package rtmac

import (
	"fmt"
	"io"

	"rtmac/internal/trace"
)

// Trace is a packet-level transmission recorder attached to a simulation.
type Trace struct {
	rec      *trace.Recorder
	interval Time
}

// EnableTrace starts recording the simulation's transmissions into a ring
// buffer holding the most recent capacity records. Call before Run. Each
// call attaches one more recorder: an earlier one is not detached and keeps
// recording alongside.
func (s *Simulation) EnableTrace(capacity int) (*Trace, error) {
	rec, err := trace.NewRecorder(capacity)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	rec.Attach(s.nw.Medium())
	return &Trace{rec: rec, interval: s.profileInterval}, nil
}

// Total returns how many transmissions have been observed so far, including
// records evicted from the ring.
func (t *Trace) Total() int64 { return t.rec.Total() }

// WriteLog writes the retained records, one transmission per line.
func (t *Trace) WriteLog(w io.Writer) error { return t.rec.WriteLog(w) }

// RenderInterval draws the k-th interval as an ASCII timeline, one lane per
// link: 'D' delivered data, 'x' channel loss, 'C' collision, 'e' empty
// priority-claiming frame, '.' idle. Only transmissions still in the ring
// buffer are drawn, so size the buffer for the window you care about.
func (t *Trace) RenderInterval(w io.Writer, k int64, width int) error {
	from := Time(k) * t.interval
	return trace.RenderTimeline(w, t.rec.Records(), from, from+t.interval, width)
}
