package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"rtmac"
	"rtmac/internal/debt"
	"rtmac/internal/telemetry"
)

// traceReps is how many times the layer suite repeats each untraced and
// traced run; timings are medians over the repeats.
const traceReps = 3

// Span buffer sizes. Untraced runs hold an unused buffer of the same size,
// so that both sides run with the same heap and the garbage collector paces
// them alike; the difference is then the tracing work alone.
const (
	kernelSpansPerInterval   = 6
	observedSpansPerInterval = 128
)

// layerSuite is the traced run. Whatever the named workload, it runs every
// workload's layer probes at a fixed size, so every per-layer metric is
// reported; trace.overhead_frac is the named workload's. Every traced
// output is checked against the untraced one, and at the default seed
// against the pinned digests.
func layerSuite(name string, seed uint64, spanRoot string) (*outcome, error) {
	out := &outcome{}
	dir := filepath.Join(spanRoot, fmt.Sprintf("%s-seed%d", name, seed))
	overhead := make(map[string]float64)
	for _, layer := range []struct {
		workload string
		run      func(*outcome, uint64, string) (float64, error)
	}{
		{"kernel", kernelLayers},
		{"sweep", sweepLayers},
		{"observed", observedLayers},
		{"replay", replayLayers},
	} {
		frac, err := layer.run(out, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", layer.workload, err)
		}
		overhead[layer.workload] = frac
	}
	out.add("trace.overhead_frac", overhead[name], "ratio")
	return out, nil
}

// checkDigest counts one check of a digest against the reference run's and,
// at the default seed, against the pinned one.
func checkDigest(out *outcome, seed uint64, workload, what, got, want string) {
	ok := got == want
	if ok && seed == defaultSeed {
		ok = got == pinned[workload]
	}
	out.check(ok, "%s: %s digest %s, untraced %s, pinned %s", workload, what, got, want, pinned[workload])
}

// overheadFrac is the share of throughput tracing costs.
func overheadFrac(untraced, traced []float64) float64 {
	return 1 - median(untraced)/median(traced)
}

// registryValue reads a counter, or a histogram's observation count, from a
// network's registry without registering anything.
func registryValue(snap []telemetry.MetricSnapshot, name string) float64 {
	for _, m := range snap {
		if m.Name == name {
			if m.Kind == "histogram" {
				return float64(m.Total)
			}
			return m.Value
		}
	}
	return 0
}

// kernelLayers runs every kernel configuration for one pass's intervals,
// untraced and traced in turn, and derives the sim, interval-loop, medium,
// core, protocol, debt, arrival and metrics numbers.
func kernelLayers(out *outcome, seed uint64, dir string) (float64, error) {
	const intervals = kernelRounds * kernelBlock
	var (
		untracedS, tracedS []float64
		usPer              = make(map[string][]float64)
		refDigest          string
		nets               []*network
		sum                totals
		perCfg             = make(map[string]totals)
		dbdpNet            *network
	)
	for r := 0; r < traceReps; r++ {
		nets = nets[:0]
		traced := make([]*network, 0, len(kernelConfigs))
		var untracedTotal, tracedTotal float64
		for _, cfg := range kernelConfigs {
			n, d, err := timeKernel(cfg, seed, nil)
			if err != nil {
				return 0, err
			}
			untracedTotal += d
			usPer[cfg.name] = append(usPer[cfg.name], d*1e6/intervals)
			nets = append(nets, n)

			tr := newTracer(kernelSpansPerInterval * intervals)
			n, d, err = timeKernel(cfg, seed, tr)
			if err != nil {
				return 0, err
			}
			tracedTotal += d
			t := tr.totals()
			sum.addAll(t)
			if r == 0 {
				perCfg[cfg.name] = t
				if err := tr.write(dir, "kernel-"+cfg.name); err != nil {
					return 0, err
				}
				if cfg.name == "dbdp" {
					dbdpNet = n
				}
			}
			traced = append(traced, n)
		}
		untracedS = append(untracedS, untracedTotal)
		tracedS = append(tracedS, tracedTotal)
		d := kernelDigest(nets)
		if r == 0 {
			refDigest = d
		}
		checkDigest(out, seed, "kernel", fmt.Sprintf("untraced repeat %d", r), d, refDigest)
		checkDigest(out, seed, "kernel", fmt.Sprintf("traced repeat %d", r), kernelDigest(traced), refDigest)
	}
	if err := checkFacade(out, seed, nets); err != nil {
		return 0, err
	}

	var events, backoff, tx, collided, empty, delivered, busyUS, simUS, maxDepth float64
	for _, n := range nets {
		eng := n.nw.Engine()
		events += float64(eng.EventsFired())
		maxDepth = max(maxDepth, float64(eng.MaxPending()))
		simUS += float64(eng.Now())
		snap := n.nw.Telemetry().Snapshot()
		backoff += registryValue(snap, "rtmac_backoff_slots")
		tx += registryValue(snap, "rtmac_tx_total")
		collided += registryValue(snap, "rtmac_tx_collided_total")
		empty += registryValue(snap, "rtmac_tx_empty_total")
		delivered += registryValue(snap, "rtmac_tx_delivered_total")
		busyUS += registryValue(snap, "rtmac_airtime_busy_us_total")
	}
	all := float64(len(nets) * intervals)
	tracedIntervals := all * traceReps
	out.add("sim.events_per_interval", events/all, "count")
	out.add("sim.queue_depth_max", maxDepth, "count")
	out.add("interval.self_ns", float64(sum.self[spInterval])/tracedIntervals, "ns")
	out.add("mac.backoff_rounds_per_interval", backoff/all, "count")
	out.add("medium.tx_per_interval", tx/all, "count")
	out.add("medium.collided_frac", collided/tx, "ratio")
	out.add("medium.empty_frac", empty/tx, "ratio")
	out.add("medium.delivered_frac", delivered/tx, "ratio")
	out.add("medium.busy_frac", busyUS/simUS, "ratio")
	out.add("medium.graph_overhead_ratio", median(usPer["dbdp-conflict"])/median(usPer["dbdp"]), "ratio")

	dp := perCfg["dbdp"]
	snap := nets[0].nw.Telemetry().Snapshot()
	accepted := registryValue(snap, "rtmac_swap_accepted_total")
	rejected := registryValue(snap, "rtmac_swap_rejected_total")
	out.add("core.begin_ns_per_interval", float64(dp.incl[spBegin])/intervals, "ns")
	out.add("core.end_ns_per_interval", float64(dp.incl[spEnd])/intervals, "ns")
	out.add("core.swap_accept_frac", accepted/(accepted+rejected), "ratio")
	for _, cfg := range kernelConfigs {
		out.add("proto."+cfg.name+".us_per_interval", median(usPer[cfg.name]), "us")
		out.sample("proto."+cfg.name+".us_per_interval", usPer[cfg.name]...)
	}

	ns, err := replayDebts(out, dbdpNet)
	if err != nil {
		return 0, err
	}
	out.add("debt.end_interval_ns", ns, "ns")
	out.add("arrival.sample_ns_per_interval", float64(sum.incl[spArrival])/tracedIntervals, "ns")
	out.add("metrics.observe_ns_per_interval", float64(sum.incl[spObserve])/tracedIntervals, "ns")
	out.sample("kernel.untraced_s", untracedS...)
	out.sample("kernel.traced_s", tracedS...)
	return overheadFrac(untracedS, tracedS), nil
}

// timeKernel builds cfg (traced when tr is set) and times one pass's worth
// of its intervals from a collected heap. The traced network records its
// served vectors when it is dbdp; the untraced side holds a span buffer of
// the traced side's size.
func timeKernel(cfg kernelConfig, seed uint64, tr *tracer) (*network, float64, error) {
	const intervals = kernelRounds * kernelBlock
	n, err := newNetwork(cfg, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	ballast := tr
	if tr == nil {
		ballast = newTracer(kernelSpansPerInterval * intervals)
	} else {
		n.observer.record = cfg.name == "dbdp"
	}
	runtime.GC()
	start := time.Now()
	if err := n.nw.Run(intervals); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", cfg.name, err)
	}
	d := time.Since(start).Seconds()
	runtime.KeepAlive(ballast)
	return n, d, nil
}

// replayDebts feeds the served vectors the observer decorator recorded into
// a fresh ledger, timing EndInterval from outside, and checks that the
// ledger ends where the network's did.
func replayDebts(out *outcome, n *network) (float64, error) {
	links := len(n.req)
	served := n.observer.served
	steps := len(served) / links
	var ns []float64
	for r := 0; r < 5; r++ {
		led, err := debt.NewLedger(n.req)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for k := 0; k < steps; k++ {
			if err := led.EndInterval(served[k*links : (k+1)*links]); err != nil {
				return 0, err
			}
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(steps))
		same := led.Intervals() == n.nw.Ledger().Intervals()
		for i := 0; i < links; i++ {
			same = same && exact(led.Debt(i)) == exact(n.nw.Ledger().Debt(i))
		}
		out.check(same, "debt: replayed ledger differs from the network's")
	}
	out.sample("debt.end_interval_ns", ns...)
	return median(ns), nil
}

// checkFacade checks that the kernel's composition simulates what the
// public API (and so cmd/benchtrend) simulates for the same configuration.
func checkFacade(out *outcome, seed uint64, nets []*network) error {
	protocols := map[string]rtmac.Protocol{
		"dbdp": rtmac.DBDP(), "ldf": rtmac.LDF(), "fcsma": rtmac.FCSMA(),
		"framecsma": rtmac.FrameCSMA(), "tdma": rtmac.TDMA(), "dcf": rtmac.DCF(),
	}
	for _, n := range nets {
		cfg := rtmac.Config{Seed: seed, Profile: rtmac.ControlProfile(), Links: controlLinks(), Protocol: protocols[n.cfg.protocol]}
		if n.cfg.video {
			cfg.Profile = rtmac.VideoProfile()
			cfg.Links = make([]rtmac.Link, 20)
			for i := range cfg.Links {
				cfg.Links[i] = rtmac.Link{SuccessProb: successProb, Arrivals: rtmac.MustVideoArrivals(0.55), DeliveryRatio: 0.9}
			}
		}
		if n.cfg.cliques {
			g, err := rtmac.CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
			if err != nil {
				return err
			}
			cfg.Conflicts = g
		}
		s, err := rtmac.NewSimulation(cfg)
		if err != nil {
			return err
		}
		if err := s.Run(int(n.nw.Intervals())); err != nil {
			return err
		}
		rep := s.Report()
		st := n.nw.Medium().Stats()
		ch := rep.Channel
		out.check(exact(rep.TotalDeficiency) == exact(n.col.TotalDeficiency()) &&
			ch.Transmissions == st.Transmissions && ch.EmptyFrames == st.EmptyFrames &&
			ch.Deliveries == st.Deliveries && ch.Losses == st.Losses && ch.Collisions == st.Collisions,
			"kernel: %s differs from the public API's simulation", n.cfg.name)
	}
	return nil
}

// sweepLayers times each figure of untraced and traced sweep passes in
// turn; the traced passes add the job-completion tracker.
func sweepLayers(out *outcome, seed uint64, _ string) (float64, error) {
	figs, err := resolveFigures()
	if err != nil {
		return 0, err
	}
	var (
		untracedS, tracedS []float64
		ref                string
		figWall            = make(map[string][]float64)
		idle, total        float64
	)
	for r := 0; r < traceReps; r++ {
		for traced := 0; traced < 2; traced++ {
			opts := sweepOptions(seed)
			var jc *jobClock
			if traced == 1 {
				jc = newJobClock()
				opts.Tracker = jc
			}
			d := &crcWriter{}
			pass := 0.0
			runtime.GC()
			for _, f := range figs {
				start := time.Now()
				res, err := f.Run(opts)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", f.ID(), err)
				}
				wall := time.Since(start).Seconds()
				pass += wall
				if jc != nil {
					figWall[f.ID()] = append(figWall[f.ID()], wall)
					i, t := jc.idle(f.ID(), sweepWorkers)
					idle += i
					total += t
				}
				digestResult(d, res)
			}
			if traced == 0 {
				untracedS = append(untracedS, pass)
			} else {
				tracedS = append(tracedS, pass)
			}
			if ref == "" {
				ref = d.String()
			}
			checkDigest(out, seed, "sweep", fmt.Sprintf("traced=%d repeat %d", traced, r), d.String(), ref)
		}
	}
	for _, f := range figs {
		out.add("experiment."+f.ID()+".wall_s", median(figWall[f.ID()]), "s")
	}
	out.add("experiment.tail_idle_frac", idle/total, "ratio")
	out.sample("sweep.untraced_s", untracedS...)
	out.sample("sweep.traced_s", tracedS...)
	return overheadFrac(untracedS, tracedS), nil
}

// observedLayers runs the observed simulation untraced through the public
// API and traced through the internal composition in turn, then the
// plane-cost matrix.
func observedLayers(out *outcome, seed uint64, dir string) (float64, error) {
	var (
		untracedS, tracedS []float64
		ref                string
		eventsPer          float64
		streamBytes        int64
		journeyBytes       int64
		sum                totals
	)
	for r := 0; r < traceReps; r++ {
		events, travel := &crcWriter{}, &crcWriter{}
		o, err := newObservedSim(seed, allPlanes, nil, events, travel)
		if err != nil {
			return 0, err
		}
		ballast := newTracer(observedSpansPerInterval * observedIntervals)
		runtime.GC()
		start := time.Now()
		if err := o.sim.Run(observedIntervals); err != nil {
			return 0, err
		}
		if err := o.flush(); err != nil {
			return 0, err
		}
		untracedS = append(untracedS, time.Since(start).Seconds())
		runtime.KeepAlive(ballast)
		d := observedDigest(events, travel)
		if r == 0 {
			ref = d
			eventsPer = float64(o.stream.Count()) / observedIntervals
			streamBytes, journeyBytes = events.n, travel.n
		}
		checkDigest(out, seed, "observed", fmt.Sprintf("untraced repeat %d", r), d, ref)

		events, travel = &crcWriter{}, &crcWriter{}
		tr := newTracer(observedSpansPerInterval * observedIntervals)
		traced, err := newTracedObservedSim(seed, tr, events, travel)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		start = time.Now()
		if err := traced.run(observedIntervals); err != nil {
			return 0, err
		}
		tracedS = append(tracedS, time.Since(start).Seconds())
		sum.addAll(tr.totals())
		checkDigest(out, seed, "observed", fmt.Sprintf("traced repeat %d", r), observedDigest(events, travel), ref)
		if r == 0 {
			if err := tr.write(dir, "observed"); err != nil {
				return 0, err
			}
		}
	}
	perEvent := func(sp int) float64 { return float64(sum.self[sp]) / float64(sum.calls[sp]) }
	out.add("telemetry.events_per_interval", eventsPer, "count")
	out.add("telemetry.encode_ns_per_event", perEvent(spSinkStream), "ns")
	out.add("telemetry.stream_bytes_per_interval", float64(streamBytes)/observedIntervals, "B")
	out.add("telemetry.journey_bytes_per_interval", float64(journeyBytes)/observedIntervals, "B")
	out.add("monitor.emit_ns_per_event", perEvent(spSinkMonitor), "ns")
	out.add("watch.emit_ns_per_event", perEvent(spSinkWatch), "ns")
	out.sample("observed.untraced_s", untracedS...)
	out.sample("observed.traced_s", tracedS...)
	if err := planeMatrix(out, seed); err != nil {
		return 0, err
	}
	return overheadFrac(untracedS, tracedS), nil
}

// planeMatrix turns one plane on at a time on the DB-DP control simulation
// and reports its marginal host time and allocations per interval over
// planes off.
func planeMatrix(out *outcome, seed uint64) error {
	variants := []struct {
		name string
		p    planes
	}{
		{"off", planes{}},
		{"monitor", planes{monitor: true}},
		{"watch", planes{watch: true}},
		{"journeys", planes{journeys: true}},
		{"stream", planes{stream: true}},
	}
	us := make(map[string]float64)
	allocs := make(map[string]float64)
	for _, v := range variants {
		var t, a []float64
		for r := 0; r < traceReps; r++ {
			o, err := newObservedSim(seed, v.p, nil, &crcWriter{}, &crcWriter{})
			if err != nil {
				return err
			}
			m0 := readMem()
			start := time.Now()
			if err := o.sim.Run(observedIntervals); err != nil {
				return fmt.Errorf("plane %s: %w", v.name, err)
			}
			if err := o.flush(); err != nil {
				return err
			}
			t = append(t, time.Since(start).Seconds()*1e6/observedIntervals)
			a = append(a, float64(readMem().allocs-m0.allocs)/observedIntervals)
		}
		us[v.name], allocs[v.name] = median(t), median(a)
		out.sample("plane."+v.name+".us_per_interval", t...)
	}
	for _, v := range variants[1:] {
		out.add("plane."+v.name+".us_per_interval", us[v.name]-us["off"], "us")
		out.add("plane."+v.name+".allocs_per_interval", allocs[v.name]-allocs["off"], "count")
	}
	return nil
}

// replayReps is how many untraced and traced replays the layer suite makes;
// a replay is short, so it takes more of them than the other probes.
const replayReps = 10

// replayLayers times each public call of the replay tools, untraced and
// traced in turn.
func replayLayers(out *outcome, seed uint64, dir string) (float64, error) {
	rec, err := recordStreams(seed)
	if err != nil {
		return 0, err
	}
	var (
		untracedS, tracedS []float64
		ref                string
		last               *replayOut
		sum                totals
	)
	for r := 0; r < replayReps; r++ {
		for traced := 0; traced < 2; traced++ {
			var h replayHooks
			var tr *tracer
			if traced == 1 {
				tr = newTracer(8)
				h.t = tr
			}
			runtime.GC()
			start := time.Now()
			o, err := replay(rec, h)
			if err != nil {
				return 0, err
			}
			elapsed := time.Since(start).Seconds()
			if err := o.check(rec); err != nil {
				out.check(false, "replay: %v", err)
			}
			d := o.digest()
			if traced == 0 {
				untracedS = append(untracedS, elapsed)
				if r == 0 {
					ref = d
				}
			} else {
				tracedS = append(tracedS, elapsed)
				sum.addAll(tr.totals())
				last = o
				if r == 0 {
					if err := tr.write(dir, "replay"); err != nil {
						return 0, err
					}
				}
			}
			checkDigest(out, seed, "replay", fmt.Sprintf("traced=%d repeat %d", traced, r), d, ref)
		}
	}
	var decodeAllocs []float64
	for r := 0; r < traceReps; r++ {
		m0 := readMem()
		events, err := rtmac.DecodeEvents(bytes.NewReader(rec.events))
		if err != nil {
			return 0, err
		}
		decodeAllocs = append(decodeAllocs, float64(readMem().allocs-m0.allocs)/float64(len(events)))
	}
	n := float64(last.events * replayReps)
	out.add("decode.ns_per_event", float64(sum.incl[spDecode])/n, "ns")
	out.add("decode.allocs_per_event", median(decodeAllocs), "count")
	out.add("audit.ns_per_event", float64(sum.incl[spAudit])/n, "ns")
	out.add("watch.replay_ns_per_event", float64(sum.incl[spWatchReplay])/float64(last.replayed*replayReps), "ns")
	out.add("rundiff.ns_per_event", float64(sum.incl[spRundiff])/float64((last.diff.Events+1)*replayReps), "ns")
	out.sample("replay.untraced_s", untracedS...)
	out.sample("replay.traced_s", tracedS...)
	return overheadFrac(untracedS, tracedS), nil
}
