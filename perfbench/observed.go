package main

import (
	"fmt"
	"io"

	"rtmac"
	"rtmac/internal/journey"
	"rtmac/internal/monitor"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

const (
	// observedBlock is the intervals in one chunk of the observed workload.
	observedBlock = 500
	// observedIntervals is the length of one observed simulation (a pass).
	observedIntervals = 5000
	// observedWarmup is the intervals set-up simulates.
	observedWarmup = 500
)

// controlLinks is the control scenario: 10 links, Bernoulli 0.78, p=0.7,
// ratio 0.99.
func controlLinks() []rtmac.Link {
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   successProb,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	return links
}

// planes selects the observability planes of a DB-DP control simulation.
type planes struct {
	stream, monitor, watch, journeys bool
}

var allPlanes = planes{stream: true, monitor: true, watch: true, journeys: true}

// observedSim is a DB-DP control simulation built through the public API in
// the order `rtmacsim -events -strict -watch -journeys` attaches its planes:
// journeys, event stream, strict monitor, watch.
type observedSim struct {
	sim      *rtmac.Simulation
	stream   *rtmac.EventStream
	journeys *rtmac.Journeys
}

func newObservedSim(seed uint64, p planes, perturb *rtmac.Perturbation, events, journeys io.Writer) (*observedSim, error) {
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:     seed,
		Profile:  rtmac.ControlProfile(),
		Links:    controlLinks(),
		Protocol: rtmac.DBDP(),
		Perturb:  perturb,
	})
	if err != nil {
		return nil, err
	}
	o := &observedSim{sim: s}
	if p.journeys {
		if o.journeys, err = s.EnableJourneys(journeys, 1); err != nil {
			return nil, err
		}
	}
	if p.stream {
		o.stream = s.StreamEvents(events)
	}
	if p.monitor {
		if _, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true}); err != nil {
			return nil, err
		}
	}
	if p.watch {
		if _, err := s.EnableWatch(rtmac.WatchConfig{}); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// run simulates n intervals in blocks, lapping c after each when non-nil.
func (o *observedSim) run(n, block int, c *clock) error {
	for done := 0; done < n; done += block {
		if err := o.sim.Run(min(block, n-done)); err != nil {
			return err
		}
		if c != nil {
			c.lap()
		}
	}
	return nil
}

// flush drains the stream buffers.
func (o *observedSim) flush() error {
	if o.stream != nil {
		if err := o.stream.Flush(); err != nil {
			return err
		}
	}
	if o.journeys != nil {
		return o.journeys.Flush()
	}
	return nil
}

// observedWorkload runs one fully observed simulation per pass.
type observedWorkload struct {
	seed           uint64
	sim            *observedSim
	events, travel *crcWriter
}

func (w *observedWorkload) prepare() error {
	w.events, w.travel = &crcWriter{}, &crcWriter{}
	var err error
	w.sim, err = newObservedSim(w.seed, allPlanes, nil, w.events, w.travel)
	return err
}

func (w *observedWorkload) setup() error {
	if err := w.prepare(); err != nil {
		return err
	}
	if err := w.sim.run(observedWarmup, observedBlock, nil); err != nil {
		return err
	}
	return w.sim.flush()
}

func (w *observedWorkload) pass(c *clock) passOut {
	if err := w.sim.run(observedIntervals, observedBlock, c); err != nil {
		return passOut{err: err}
	}
	if err := w.sim.flush(); err != nil {
		return passOut{err: err}
	}
	return passOut{
		digest:    observedDigest(w.events, w.travel),
		units:     1,
		intervals: observedIntervals,
	}
}

func observedDigest(events, journeys *crcWriter) string {
	return fmt.Sprintf("events=%s journeys=%s", events, journeys)
}

// tracedObservedSim is the observed configuration composed from the
// internal packages exactly as the public API composes it, with a span
// decorator around every sink, both stream writers, the arrival process,
// the protocol and the observer. Its streams must equal observedSim's.
type tracedObservedSim struct {
	net    *network
	stream *telemetry.JSONL
	jt     *journey.Tracer
	sinks  []telemetry.Sink
}

// fanout forwards an event to every attached sink, as the public API's
// simulation fan-out does for monitor violations and watch alerts.
type fanout struct{ sinks *[]telemetry.Sink }

func (f fanout) Emit(ev telemetry.Event) {
	for _, s := range *f.sinks {
		s.Emit(ev)
	}
}

func newTracedObservedSim(seed uint64, tr *tracer, events, journeys io.Writer) (*tracedObservedSim, error) {
	net, err := newNetwork(kernelConfigs[0], seed, tr)
	if err != nil {
		return nil, err
	}
	nw := net.nw
	o := &tracedObservedSim{net: net}
	if o.jt, err = journey.NewTracer(nw.Links(), tracedWriter{w: journeys, t: tr, name: spWriteJourneys}, 1); err != nil {
		return nil, err
	}
	if err := nw.SetJourneyTracer(o.jt); err != nil {
		return nil, err
	}
	out := fanout{sinks: &o.sinks}
	o.stream = telemetry.NewJSONL(tracedWriter{w: events, t: tr, name: spWriteStream})
	o.sinks = append(o.sinks, tracedSink{inner: o.stream, t: tr, name: spSinkStream})
	rec, err := monitor.NewFlightRecorder(rtmac.DefaultFlightRecorderIntervals)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(monitor.Config{
		Links:         nw.Links(),
		Interval:      rtmac.ControlProfile().Interval(),
		CollisionFree: true,
		SwapPairs:     1,
		Strict:        true,
		Registry:      nw.Telemetry(),
		Output:        out,
	})
	if err != nil {
		return nil, err
	}
	o.sinks = append(o.sinks, tracedSink{inner: rec, t: tr, name: spSinkFlight}, tracedSink{inner: mon, t: tr, name: spSinkMonitor})
	nw.SetIntervalCheck(mon.Err)
	eng, err := watch.New(watch.Config{
		Links:    nw.Links(),
		Required: net.req,
		Registry: nw.Telemetry(),
		Output:   out,
	})
	if err != nil {
		return nil, err
	}
	o.sinks = append(o.sinks, tracedSink{inner: eng, t: tr, name: spSinkWatch})
	nw.SetEventSink(telemetry.MultiSink(o.sinks))
	return o, nil
}

func (o *tracedObservedSim) run(n int) error {
	if err := o.net.nw.Run(n); err != nil {
		return err
	}
	if err := o.stream.Flush(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	return o.jt.Flush()
}
