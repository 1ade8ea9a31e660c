// Package ring provides the one bounded "keep the last N" buffer the
// recorders share: transmission traces, flight-recorder intervals, journey
// debt timelines, health sparklines and rundiff's context window.
package ring

import "fmt"

// Ring retains the most recent Cap elements, oldest first. It grows by
// append up to its capacity, so an unfilled ring costs only what it holds,
// then overwrites the oldest slot. The zero value has capacity 0 and must
// not be pushed to.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element once the ring is full
	cap  int
}

// New returns an empty ring retaining up to capacity elements.
func New[T any](capacity int) Ring[T] {
	if capacity < 0 {
		panic(fmt.Sprintf("ring: negative capacity %d", capacity))
	}
	return Ring[T]{cap: capacity}
}

// Push appends one element and returns its slot for the caller to fill.
// Below capacity the slot is new and zero; once full it is the evicted
// oldest element's slot, still holding that element, so callers can reuse
// its buffers. The pointer is valid until the next Push.
func (r *Ring[T]) Push() *T {
	if len(r.buf) < r.cap {
		var zero T
		r.buf = append(r.buf, zero)
		return &r.buf[len(r.buf)-1]
	}
	slot := &r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return slot
}

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the capacity.
func (r *Ring[T]) Cap() int { return r.cap }

// At returns the slot of the i-th oldest retained element, 0 ≤ i < Len. The
// pointer is valid until the next Push.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= len(r.buf) {
		panic(fmt.Sprintf("ring: index %d out of range [0, %d)", i, len(r.buf)))
	}
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Slice returns a copy of the retained elements, oldest first. It is never
// nil, so an empty ring yields an empty slice.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
