package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtmac/internal/arrival"
	"rtmac/internal/mac"
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// Span names. Every span is recorded from the benchmark's own files, around
// a call into one layer's public functions.
const (
	spInterval = iota
	spArrival
	spBegin
	spEnd
	spObserve
	spSinkStream
	spSinkFlight
	spSinkMonitor
	spSinkWatch
	spWriteStream
	spWriteJourneys
	spDecode
	spAudit
	spWatchReplay
	spRundiff
	numSpans
)

var spanNames = [numSpans]string{
	"interval", "arrival.sample", "protocol.begin", "protocol.end", "observer.observe",
	"sink.stream", "sink.flight", "sink.monitor", "sink.watch",
	"writer.stream", "writer.journeys",
	"decode", "audit", "watch.replay", "rundiff",
}

// span is one timed call. Spans of one interval share its index as id;
// parent is the index of the enclosing span in the tracer, -1 for a root.
type span struct {
	id         int64
	name       int32
	parent     int32
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory; they are summed and written out at the end.
type tracer struct {
	epoch time.Time
	spans []span
	open  int32
	k     int64 // id of the current interval
	root  int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), open: -1, root: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name int) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: t.k, name: int32(name), parent: t.open, start: t.now()})
	t.open = i
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = t.now()
	t.open = t.spans[i].parent
}

// attach brackets every interval of nw with a root span through the
// network's wall-clock hooks.
func (t *tracer) attach(nw *mac.Network) {
	t.k = nw.Intervals()
	nw.SetWallClockHooks(func() {
		t.root = t.begin(spInterval)
	}, func(k int64, _ sim.Time) {
		t.end(t.root)
		t.k = k + 1
	})
}

// totals sums, per span name, the calls, the inclusive time and the self
// time (inclusive minus the time of direct children).
type totals struct {
	calls, incl, self [numSpans]int64
}

func (t *tracer) totals() totals {
	var s totals
	for _, sp := range t.spans {
		d := sp.end - sp.start
		s.calls[sp.name]++
		s.incl[sp.name] += d
		s.self[sp.name] += d
		if sp.parent >= 0 {
			s.self[t.spans[sp.parent].name] -= d
		}
	}
	return s
}

func (s *totals) addAll(o totals) {
	for i := range s.calls {
		s.calls[i] += o.calls[i]
		s.incl[i] += o.incl[i]
		s.self[i] += o.self[i]
	}
}

// write dumps the spans as CSV: id,name,parent,start_ns,end_ns.
func (t *tracer) write(dir, label string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, label+".csv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,name,parent,start_ns,end_ns")
	for _, sp := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d\n", sp.id, spanNames[sp.name], sp.parent, sp.start, sp.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedArrivals times arrival.VectorProcess.Sample.
type tracedArrivals struct {
	arrival.VectorProcess
	t *tracer
}

func (a tracedArrivals) Sample(rng *sim.RNG, dst []int) {
	i := a.t.begin(spArrival)
	a.VectorProcess.Sample(rng, dst)
	a.t.end(i)
}

// tracedProtocol times mac.Protocol.BeginInterval and EndInterval.
type tracedProtocol struct {
	inner mac.Protocol
	t     *tracer
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) BeginInterval(ctx *mac.Context) {
	i := p.t.begin(spBegin)
	p.inner.BeginInterval(ctx)
	p.t.end(i)
}

func (p *tracedProtocol) EndInterval(ctx *mac.Context) {
	i := p.t.begin(spEnd)
	p.inner.EndInterval(ctx)
	p.t.end(i)
}

// priorityProtocol is a protocol carrying a priority permutation and a swap
// hook (the DP family); the network discovers both by type assertion, so
// the decorator must forward them.
type priorityProtocol interface {
	mac.Protocol
	SetSwapHook(mac.SwapHook)
	Priorities() perm.Permutation
	CopyPriorities(dst perm.Permutation) perm.Permutation
}

type tracedPriorityProtocol struct {
	tracedProtocol
	dp priorityProtocol
}

func (p *tracedPriorityProtocol) SetSwapHook(h mac.SwapHook)   { p.dp.SetSwapHook(h) }
func (p *tracedPriorityProtocol) Priorities() perm.Permutation { return p.dp.Priorities() }
func (p *tracedPriorityProtocol) CopyPriorities(dst perm.Permutation) perm.Permutation {
	return p.dp.CopyPriorities(dst)
}

// traceProtocol wraps p so that the network sees exactly the optional
// methods p has; a protocol with only some of them cannot be wrapped
// without changing what the network does, so it is refused.
func traceProtocol(p mac.Protocol, t *tracer) (mac.Protocol, error) {
	if dp, ok := p.(priorityProtocol); ok {
		return &tracedPriorityProtocol{tracedProtocol: tracedProtocol{inner: p, t: t}, dp: dp}, nil
	}
	_, hook := p.(interface{ SetSwapHook(mac.SwapHook) })
	_, prio := p.(interface{ Priorities() perm.Permutation })
	_, copier := p.(interface {
		CopyPriorities(perm.Permutation) perm.Permutation
	})
	if hook || prio || copier {
		return nil, fmt.Errorf("cannot trace protocol %s: it has only some of the priority methods", p.Name())
	}
	return &tracedProtocol{inner: p, t: t}, nil
}

// tracedObserver times mac.Observer.ObserveInterval and, when record is
// set, keeps a copy of every served vector (outside the span).
type tracedObserver struct {
	inner  mac.Observer
	t      *tracer
	record bool
	served []int
}

func (o *tracedObserver) ObserveInterval(k int64, arrivals, served []int) {
	i := o.t.begin(spObserve)
	o.inner.ObserveInterval(k, arrivals, served)
	o.t.end(i)
	if o.record {
		o.served = append(o.served, served...)
	}
}

// tracedSink times telemetry.Sink.Emit.
type tracedSink struct {
	inner telemetry.Sink
	t     *tracer
	name  int
}

func (s tracedSink) Emit(ev telemetry.Event) {
	i := s.t.begin(s.name)
	s.inner.Emit(ev)
	s.t.end(i)
}

// tracedWriter times writes into a stream's destination.
type tracedWriter struct {
	w    io.Writer
	t    *tracer
	name int
}

func (w tracedWriter) Write(p []byte) (int, error) {
	i := w.t.begin(w.name)
	n, err := w.w.Write(p)
	w.t.end(i)
	return n, err
}
