package main

import (
	"bufio"
	"bytes"
	"fmt"

	"rtmac"
	"rtmac/internal/rundiff"
	"rtmac/internal/watch"
)

// replayIntervals is the length of the recorded streams the replay workload
// audits.
const replayIntervals = 200

// replayPerturbation is the one-packet fault injected into the twin
// recording; rundiff must place the first divergence in its interval.
func replayPerturbation(seed uint64) *rtmac.Perturbation {
	return &rtmac.Perturbation{K: int64(150 + seed%40), Link: int(seed % 10), Extra: 1}
}

// recordings are the streams the replay workload reads: the observed
// configuration at the workload seed and its perturbed twin.
type recordings struct {
	events, twin []byte
	k            int64
	required     []float64
}

func recordStreams(seed uint64) (*recordings, error) {
	r := &recordings{k: replayPerturbation(seed).K}
	for i, perturb := range []*rtmac.Perturbation{nil, replayPerturbation(seed)} {
		var buf bytes.Buffer
		o, err := newObservedSim(seed, allPlanes, perturb, &buf, &crcWriter{})
		if err != nil {
			return nil, err
		}
		if err := o.sim.Run(replayIntervals); err != nil {
			return nil, err
		}
		if err := o.flush(); err != nil {
			return nil, err
		}
		if i == 0 {
			r.events = buf.Bytes()
			for _, l := range o.sim.Report().Links {
				r.required = append(r.required, l.Required)
			}
		} else {
			r.twin = buf.Bytes()
		}
	}
	return r, nil
}

// replayOut is what the three stream-reading tools conclude.
type replayOut struct {
	events     int
	violations []rtmac.Violation
	alerts     []watch.Alert
	replayed   int64
	diff       *rundiff.EventDiff
}

// digest renders the tools' conclusions.
func (o *replayOut) digest() string {
	d := &crcWriter{}
	fmt.Fprintf(d, "events=%d replayed=%d violations=%d\n", o.events, o.replayed, len(o.violations))
	for _, v := range o.violations {
		fmt.Fprintln(d, v)
	}
	if err := watch.WriteAlertsJSONL(d, o.alerts); err != nil {
		fmt.Fprintln(d, err)
	}
	if dv := o.diff.Divergence; dv != nil {
		fmt.Fprintf(d, "diverge k=%d link=%d kind=%s after=%d\n", dv.K(), dv.Link(), dv.Kind(), o.diff.Events)
	}
	return d.String()
}

// check verifies what holds at any seed: a clean audit, and a first
// divergence in the perturbed interval.
func (o *replayOut) check(r *recordings) error {
	if len(o.violations) > 0 {
		return fmt.Errorf("audit found %d violations, first %s", len(o.violations), o.violations[0])
	}
	if o.diff.Equal || o.diff.Divergence == nil || o.diff.Divergence.K() != r.k {
		return fmt.Errorf("rundiff did not diverge at the perturbed interval %d", r.k)
	}
	return nil
}

// replayHooks lets the traced run put a span around each public call, and
// any run sample the heap after it; the zero value does neither.
type replayHooks struct {
	t    *tracer
	heap func()
}

func (h replayHooks) call(name int, fn func() error) error {
	var i int32
	if h.t != nil {
		i = h.t.begin(name)
	}
	err := fn()
	if h.t != nil {
		h.t.end(i)
	}
	if h.heap != nil {
		h.heap()
	}
	return err
}

// replay runs `rtmacsim -checkevents`, `rtmacwatch` replay and `rundiff`
// over the recordings, the way those commands call the library.
func replay(r *recordings, h replayHooks) (*replayOut, error) {
	o := &replayOut{}
	var events []rtmac.Event
	err := h.call(spDecode, func() (err error) {
		events, err = rtmac.DecodeEvents(bytes.NewReader(r.events))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.events = len(events)
	if err := h.call(spAudit, func() (err error) {
		o.violations, err = rtmac.AuditEvents(events)
		return err
	}); err != nil {
		return nil, err
	}
	events = nil
	if err := h.call(spWatchReplay, func() error {
		eng, err := watch.New(watch.Config{Links: len(r.required), Required: r.required})
		if err != nil {
			return err
		}
		if o.replayed, err = watch.ReplayJSONL(bufio.NewReader(bytes.NewReader(r.events)), eng); err != nil {
			return err
		}
		o.alerts = eng.Alerts()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := h.call(spRundiff, func() (err error) {
		o.diff, err = rundiff.DiffEvents(bytes.NewReader(r.events), bytes.NewReader(r.twin), rundiff.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// replayWorkload audits the same recordings once per pass; a pass is one
// chunk.
type replayWorkload struct {
	seed uint64
	rec  *recordings
}

func (w *replayWorkload) setup() error {
	var err error
	if w.rec, err = recordStreams(w.seed); err != nil {
		return err
	}
	_, err = replay(w.rec, replayHooks{})
	return err
}

func (w *replayWorkload) prepare() error { return nil }

func (w *replayWorkload) pass(c *clock) passOut {
	o, err := replay(w.rec, replayHooks{heap: c.heap})
	if err != nil {
		return passOut{err: err}
	}
	c.lap()
	if err := o.check(w.rec); err != nil {
		return passOut{err: err}
	}
	return passOut{digest: o.digest(), units: 3, intervals: replayIntervals}
}
