// Package rundiff explains the difference between two recorded runs. It is
// the read side of the determinism contracts: where the writer side promises
// byte-identical streams for equal seeds, rundiff turns "files differ" into a
// precise pointer — the first divergent event with its interval, link, kind,
// field-level delta, and a bounded window of the preceding events from both
// sides — plus paired metric attribution that decomposes an endpoint delta
// (delivery ratio, delay quantiles) into per-link / per-cause contributions
// using the journey attribution.
//
// Every differ is streaming and bounded-memory: inputs can be millions of
// events, and the engine holds only the current line of each side, a small
// context ring, and O(links) attribution state. Event streams and figure
// CSVs align positionally (they are totally ordered by the engine's
// (time, seq) clock); journey streams align by key-join on the global
// arrival sequence number, so differently-sampled streams still pair up.
package rundiff

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"rtmac/internal/ring"
	"rtmac/internal/telemetry"
)

// DefaultWindow is how many preceding lines of context each side retains
// when no explicit window is configured.
const DefaultWindow = 5

// Options configures the differs.
type Options struct {
	// Window is the number of preceding raw lines kept per side for the
	// divergence context; 0 means DefaultWindow, negative means none.
	Window int
}

func (o Options) window() int {
	switch {
	case o.Window == 0:
		return DefaultWindow
	case o.Window < 0:
		return 0
	}
	return o.Window
}

// lineReader yields newline-delimited lines from a stream, validating and
// recording an optional leading schema header. The returned slices are only
// valid until the next call.
type lineReader struct {
	r      *bufio.Reader
	lineNo int64 // 1-based number of the last line returned
	header *telemetry.StreamHeader
	long   []byte // a line longer than the read buffer, assembled
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, 64*1024)}
}

// next returns the next non-empty line without its trailing newline, or
// ok = false at end of stream.
func (lr *lineReader) next() (line []byte, ok bool, err error) {
	for {
		raw, err := lr.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			lr.long = append(lr.long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = lr.r.ReadSlice('\n')
				lr.long = append(lr.long, raw...)
			}
			raw = lr.long
		}
		if len(raw) == 0 {
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				return nil, false, err
			}
		}
		lr.lineNo++
		line := bytes.TrimRight(raw, "\r\n")
		if len(bytes.TrimSpace(line)) == 0 {
			if err == io.EOF {
				return nil, false, nil
			}
			continue
		}
		return line, true, nil
	}
}

// readHeader consumes a leading schema header when present, validating it
// against the expected schema. Headerless legacy streams pass through. As
// telemetry.Decoder does, it looks past leading whitespace and blank lines,
// which count towards the line numbers.
func (lr *lineReader) readHeader(schema string, maxVersion int) error {
	for {
		peek, err := lr.r.Peek(1)
		if err != nil {
			return nil // empty stream; the differ reports it as such
		}
		c := peek[0]
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
		if c == '\n' {
			lr.lineNo++
		}
		lr.r.Discard(1)
	}
	// Peek a bounded prefix to probe for a header without consuming.
	buf, err := lr.r.Peek(256)
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 && err == nil {
		// First line longer than the probe window: headers are tiny, so this
		// is a data line.
		return nil
	}
	line := buf
	if nl >= 0 {
		line = buf[:nl+1]
	}
	h, ok := telemetry.ParseHeader(line)
	if !ok {
		return nil
	}
	if err := h.Check(schema, maxVersion); err != nil {
		return err
	}
	lr.r.Discard(len(line))
	lr.lineNo++
	lr.header = &h
	return nil
}

// contextRing keeps the last w raw lines of one side; a zero window keeps
// none.
type contextRing struct{ ring.Ring[[]byte] }

func newContextRing(w int) *contextRing { return &contextRing{ring.New[[]byte](w)} }

// push copies line into the ring, reusing the evicted line's buffer.
func (c *contextRing) push(line []byte) {
	if c.Cap() > 0 {
		slot := c.Push()
		*slot = append((*slot)[:0], line...)
	}
}

func (c *contextRing) strings() []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = string(*c.At(i))
	}
	return out
}

// FieldDelta is one numeric payload field that differs between the sides.
type FieldDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// InA / InB report presence: a field can exist on only one side.
	InA bool `json:"in_a"`
	InB bool `json:"in_b"`
}

func (f FieldDelta) String() string {
	switch {
	case !f.InA:
		return fmt.Sprintf("%s: (absent) -> %g", f.Name, f.B)
	case !f.InB:
		return fmt.Sprintf("%s: %g -> (absent)", f.Name, f.A)
	}
	return fmt.Sprintf("%s: %g -> %g (delta %+g)", f.Name, f.A, f.B, f.B-f.A)
}
