// Command rtmacsim runs one real-time MAC simulation from command-line
// flags and prints the per-link report.
//
// Examples:
//
//	# The paper's control scenario under DB-DP:
//	rtmacsim -protocol dbdp -profile control -links 10 -p 0.7 \
//	         -arrivals bernoulli -rate 0.78 -ratio 0.99 -intervals 20000
//
//	# The video scenario under FCSMA:
//	rtmacsim -protocol fcsma -profile video -links 20 -p 0.7 \
//	         -arrivals video -rate 0.55 -ratio 0.9 -intervals 5000
//
//	# With the runtime health plane: GC/scheduler telemetry, slot-budget
//	# watchdog, continuous profile ring, /api/health + /debug/pprof:
//	rtmacsim -protocol dbdp -intervals 200000 -health \
//	         -profilering /tmp/ring -serve :8080
//
// Exit codes, shared by every command: 0 success; 1 a finding — a -strict
// run stopped at an invariant violation, or a -checkevents, -checkperfetto,
// -checkmetrics or -checkhealth file is malformed or records violations; 2
// usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtmac"
	"rtmac/internal/cli"
	"rtmac/internal/health"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/scenario"
	"rtmac/topology"
)

// options are the flags that shape a run once its configuration is built.
type options struct {
	timeline      bool
	delay         bool
	telemetry     string
	events        string
	sampleTx      int
	cpuprofile    string
	memprofile    string
	monitor       bool
	strict        bool
	perfetto      string
	flight        string
	serve         string
	journeys      string
	journeySample int
	trace         string
	traceCap      int
	ledger        string
	health        bool
	profileRing   string
	slotBudget    time.Duration
	watch         bool
	sloBudget     float64
}

func main() { cli.Main("rtmacsim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rtmacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var (
		configPath = fs.String("config", "", "JSON scenario file (overrides the other flags; see package rtmac/scenario)")
		protoName  = fs.String("protocol", "dbdp", "dbdp | ldf | eldf | fcsma | framecsma | tdma | dcf")
		profile    = fs.String("profile", "control", "video | control")
		links      = fs.Int("links", 10, "number of links")
		p          = fs.Float64("p", 0.7, "per-link delivery probability")
		arrivals   = fs.String("arrivals", "bernoulli", "bernoulli | video | fixed")
		rate       = fs.Float64("rate", 0.78, "arrival parameter: Bernoulli p, video alpha, or fixed count")
		ratio      = fs.Float64("ratio", 0.99, "required delivery ratio")
		intervals  = fs.Int("intervals", 20000, "simulated intervals")
		seed       = fs.Uint64("seed", 1, "random seed")
		pairs      = fs.Int("pairs", 1, "DB-DP swap pairs per interval (Remark 6 extension)")
		checkev    = fs.String("checkevents", "", "audit a JSONL event file written by -events: validate the format and run the invariant checkers over it, then exit")
		checkperf  = fs.String("checkperfetto", "", "validate a trace_event JSON file written by -perfetto, print its event count, and exit")
		checkmet   = fs.String("checkmetrics", "", "validate a Prometheus text-format metrics file (e.g. fetched from /metrics or written by -telemetry), print its sample count, and exit")
		checkhlth  = fs.String("checkhealth", "", "validate an /api/health JSON document saved to this file, then exit")
		recordDiff = fs.String("record-for-diff", "", "record everything rundiff aligns on: events to PREFIX.events.jsonl and full-sample journeys to PREFIX.journeys.jsonl (overrides -events/-journeys/-journey-sample)")
		perturbK   = fs.Int64("perturb-interval", -1, "inject one extra packet arrival at this interval (0-based; -1 = off); with -record-for-diff this is the rundiff divergence drill")
		perturbLnk = fs.Int("perturb-link", 0, "link receiving the -perturb-interval injection")
		perturbN   = fs.Int("perturb-extra", 1, "packets injected by -perturb-interval")
	)
	fs.BoolVar(&o.timeline, "timeline", false, "render the final interval as an ASCII packet timeline")
	fs.BoolVar(&o.delay, "delay", false, "report delivery-delay statistics (mean, p50/p95/p99, max)")
	fs.StringVar(&o.telemetry, "telemetry", "", "write Prometheus-format metrics to this file (plus .json snapshot and .manifest.json alongside)")
	fs.StringVar(&o.events, "events", "", "stream structured JSONL events (tx, interval, swap, debt) to this file")
	fs.IntVar(&o.sampleTx, "sample-tx", 1, "keep one in every N per-transmission events in the event stream (1 keeps all)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile taken after the run to this file")
	fs.BoolVar(&o.monitor, "monitor", false, "run the invariant monitor over the live event stream and report violations")
	fs.BoolVar(&o.strict, "strict", false, "with the monitor, abort the run at the first invariant violation (implies -monitor)")
	fs.StringVar(&o.perfetto, "perfetto", "", "export a Perfetto/Chrome trace_event JSON file of the run (open at ui.perfetto.dev)")
	fs.StringVar(&o.flight, "flightrecorder", "", "dump the flight recorder (last 64 intervals of events) to this JSONL file, plus a .txt timeline alongside (implies -monitor)")
	fs.StringVar(&o.serve, "serve", "", "serve the live observability plane (dashboard, /metrics, /api/progress, /api/links, /events SSE) on this address (e.g. :8080); after the run the server stays up with the final state until interrupted")
	fs.StringVar(&o.journeys, "journeys", "", "stream sampled per-packet journeys (contention rounds, attempts, deadline-miss attribution) as JSONL to this file; query with cmd/tracequery")
	fs.IntVar(&o.journeySample, "journey-sample", 1, "record one in every N packet journeys (1 records all)")
	fs.StringVar(&o.trace, "trace", "", "write the packet transmission log (most recent -trace-cap records) to this file after the run")
	fs.IntVar(&o.traceCap, "trace-cap", 65536, "transmission records retained by -trace")
	fs.StringVar(&o.ledger, "ledger", "", "append the run's final metrics (with mergeable partials) to the run ledger in DIR; inspect with ledgerctl")
	fs.BoolVar(&o.health, "health", false, "enable the runtime health plane: GC/scheduler telemetry, slot-budget watchdog, /api/health on -serve, health summary in manifests")
	fs.StringVar(&o.profileRing, "profilering", "", "capture continuous CPU+heap pprof snapshots into a bounded ring in DIR (implies -health)")
	fs.DurationVar(&o.slotBudget, "slot-budget", 0, "wall-clock budget per simulated interval for the -health watchdog (default: one simulated interval; negative disables the watchdog)")
	fs.BoolVar(&o.watch, "watch", false, "run the SLO conformance engine over the live event stream: burn-rate, delivery CUSUM, debt-drift and expiry-spike detectors against the requirement vector (or the scenario's slo section); alerts flow into the event stream and /api/alerts")
	fs.Float64Var(&o.sloBudget, "slo-budget", 0, "deadline-miss budget for the -watch burn-rate detector, as a fraction of each link's target (0 = scenario's slo budget, or the default 0.1)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if o.sampleTx < 1 {
		return fmt.Errorf("-sample-tx %d must be at least 1 (1 keeps every tx event)", o.sampleTx)
	}
	if o.journeySample < 1 {
		return fmt.Errorf("-journey-sample %d must be at least 1 (1 records every packet)", o.journeySample)
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs %d must be at least 1", *pairs)
	}
	switch {
	case *checkev != "":
		return checkEvents(stdout, stderr, *checkev)
	case *checkperf != "":
		return checkFile(stdout, *checkperf, func(r io.Reader) (string, error) {
			n, err := rtmac.ValidatePerfettoTrace(r)
			return fmt.Sprintf("%d trace events ok", n), err
		})
	case *checkmet != "":
		return checkFile(stdout, *checkmet, func(r io.Reader) (string, error) {
			n, err := rtmac.ValidatePrometheusText(r)
			return fmt.Sprintf("%d samples ok", n), err
		})
	case *checkhlth != "":
		return checkFile(stdout, *checkhlth, func(r io.Reader) (string, error) {
			return "health document ok", rtmac.ValidateHealthDoc(r)
		})
	}
	o.monitor = o.monitor || o.strict || o.flight != ""
	o.health = o.health || o.profileRing != ""
	o.watch = o.watch || o.sloBudget != 0
	if *recordDiff != "" {
		o.events = *recordDiff + ".events.jsonl"
		o.journeys = *recordDiff + ".journeys.jsonl"
		o.journeySample = 1
	}
	var (
		cfg  rtmac.Config
		n    int
		topo *topology.Network
		err  error
	)
	if *configPath != "" {
		cfg, topo, n, err = scenario.LoadAnyFile(*configPath)
	} else {
		// The flag path is a one-group scenario document, so flags and
		// -config files resolve names through the same code.
		cfg, n, err = scenario.Build(scenario.Document{
			Seed:      *seed,
			Intervals: *intervals,
			Profile:   scenario.ProfileSpec{Preset: *profile},
			Protocol:  scenario.ProtocolSpec{Name: *protoName, Pairs: *pairs},
			Links: []scenario.LinkGroup{{
				Count:         *links,
				SuccessProb:   *p,
				Arrivals:      scenario.ArrivalsSpec{Type: *arrivals, Param: *rate},
				DeliveryRatio: *ratio,
			}},
		})
	}
	if err != nil {
		return err
	}
	if *perturbK >= 0 {
		cfg.Perturb = &rtmac.Perturbation{K: *perturbK, Link: *perturbLnk, Extra: *perturbN}
	}
	return runAndReport(ctx, stdout, stderr, o, cfg, n, topo)
}

// runAndReport runs the simulation cfg describes with the planes o asks for
// and prints the report; topo, when set, names the links. Every return path
// flushes and closes the files the planes stream into, so a strict abort
// keeps its violating interval on disk.
func runAndReport(ctx context.Context, stdout, stderr io.Writer, o options, cfg rtmac.Config, intervals int, topo *topology.Network) (err error) {
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		return err
	}
	if cfg.Conflicts != nil {
		fmt.Fprintf(stdout, "%s\n", cfg.Conflicts)
	}
	// closeOutputs flushes the planes that stream into files, then closes
	// the files, once, keeping the first error.
	var flushes, closes []func() error
	closeOutputs := func() (first error) {
		for _, fn := range append(flushes, closes...) {
			if err := fn(); first == nil {
				first = err
			}
		}
		flushes, closes = nil, nil
		return first
	}
	defer closeOutputs()

	var (
		tr    *rtmac.Trace
		jt    *rtmac.Journeys
		trace *rtmac.PerfettoTrace
	)
	if o.timeline || o.trace != "" {
		capacity := o.traceCap
		if o.trace == "" || (o.timeline && capacity < 4096) {
			capacity = 4096
		}
		if tr, err = sim.EnableTrace(capacity); err != nil {
			return err
		}
	}
	if o.journeys != "" {
		f, err := os.Create(o.journeys)
		if err != nil {
			return err
		}
		closes = append(closes, f.Close)
		if jt, err = sim.EnableJourneys(f, o.journeySample); err != nil {
			return err
		}
		flushes = append(flushes, jt.Flush)
	}
	var dl *rtmac.Delay
	if o.delay || o.ledger != "" {
		if dl, err = sim.EnableDelay(); err != nil {
			return err
		}
	}
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		closes = append(closes, f.Close)
		var opts []rtmac.EventOption
		if o.sampleTx > 1 {
			opts = append(opts, rtmac.SampleEvents("tx", o.sampleTx))
		}
		flushes = append(flushes, sim.StreamEvents(f, opts...).Flush)
	}
	if o.perfetto != "" {
		f, err := os.Create(o.perfetto)
		if err != nil {
			return err
		}
		closes = append(closes, f.Close)
		trace = sim.ExportPerfetto(f)
		flushes = append(flushes, trace.Flush)
	}
	var mon *rtmac.Monitor
	if o.monitor {
		if mon, err = sim.EnableMonitor(rtmac.MonitorConfig{Strict: o.strict}); err != nil {
			return err
		}
	}
	var hp *rtmac.Health
	if o.health {
		hp, err = sim.EnableHealth(rtmac.HealthConfig{
			SlotBudget: o.slotBudget,
			ProfileDir: o.profileRing,
		})
		if err != nil {
			return err
		}
		defer hp.Stop()
		if o.profileRing != "" {
			fmt.Fprintf(stdout, "health: runtime collector + slot-budget watchdog on; profile ring -> %s\n", o.profileRing)
		} else {
			fmt.Fprintln(stdout, "health: runtime collector + slot-budget watchdog on")
		}
	}
	var wtch *rtmac.Watch
	if o.watch {
		if wtch, err = sim.EnableWatch(rtmac.WatchConfig{Budget: o.sloBudget}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "watch: SLO conformance engine on (burn rate, delivery CUSUM, debt drift, expiry spike)")
	}
	var obsrv *rtmac.Observability
	if o.serve != "" {
		if obsrv, err = sim.ServeObservability(o.serve, intervals); err != nil {
			return err
		}
		defer func() {
			if cerr := obsrv.Close(); err == nil {
				err = cerr
			}
		}()
		fmt.Fprintf(stdout, "observability: serving on http://%s (dashboard, /metrics, /api/progress, /events)\n",
			obsrv.Addr())
		if o.ledger != "" {
			if err := obsrv.ServeRunLedger(o.ledger); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "observability: run history from %s on /history and /api/runs\n", o.ledger)
		}
	}
	if o.cpuprofile != "" {
		stopProfile, err := health.StartCPUProfile(o.cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if perr := stopProfile(); err == nil {
				err = perr
			}
		}()
	}
	start := time.Now()
	runErr := sim.Run(intervals)
	if err := closeOutputs(); err != nil && runErr == nil {
		return err
	}
	if runErr == nil {
		if trace != nil {
			fmt.Fprintf(stdout, "perfetto trace: %d events -> %s\n", trace.Count(), o.perfetto)
		}
		if jt != nil {
			agg := jt.Attribution()
			fmt.Fprintf(stdout, "journeys: %d of %d packets recorded -> %s\n", jt.Count(), jt.Seen(), o.journeys)
			fmt.Fprintf(stdout, "  delivered %d | expired-in-queue %d | lost-to-channel %d | lost-to-collision %d | never-won-contention %d\n",
				agg.Delivered, agg.ExpiredInQueue, agg.LostToChannel, agg.LostToCollision, agg.NeverWon)
		}
		if o.trace != "" {
			if err := cli.WriteFile(o.trace, tr.WriteLog); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace: %d transmissions observed; log -> %s\n", tr.Total(), o.trace)
		}
	}
	// A strict-mode abort still gets its post-mortem artifacts: the
	// violating window is exactly what the flight recorder retains.
	if mon != nil {
		dumpFlightRecorder(stdout, stderr, mon, o.flight)
		reportViolations(stdout, mon)
	}
	if wtch != nil {
		reportAlerts(stdout, wtch)
	}
	if runErr != nil {
		if mon != nil && mon.Err() != nil {
			return cli.Finding(runErr)
		}
		return runErr
	}
	if hp != nil && o.serve == "" {
		// Final collector round before manifests are stamped; with -serve the
		// plane stays live (the ring keeps capturing) until the signal below.
		hp.Stop()
	}
	if o.memprofile != "" {
		if err := health.WriteHeapProfile(o.memprofile); err != nil {
			return err
		}
	}
	if o.telemetry != "" {
		if err := dumpTelemetry(sim, cfg, intervals, o.telemetry); err != nil {
			return err
		}
	}
	rep := sim.Report()
	fmt.Fprint(stdout, rep)
	if topo != nil {
		fmt.Fprintln(stdout, "link names:")
		for i := range rep.Links {
			name, err := topo.LinkName(i)
			if err != nil {
				return err
			}
			kind, err := topo.KindOf(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %4d = %s (%s)\n", i, name, kind)
		}
	}
	fmt.Fprintf(stdout, "simulated %d intervals (%v of channel time) in %v\n",
		intervals, sim.Now().Std(), time.Since(start).Round(time.Millisecond))
	if hp != nil {
		sum := hp.Summary()
		fmt.Fprintf(stdout, "health: %d samples · peak heap %.1f MiB · %d GC pauses (~%v total, max %v)",
			sum.Samples, float64(sum.HeapLivePeakBytes)/(1<<20), sum.GCPauses,
			time.Duration(sum.GCPauseTotalNS).Round(time.Microsecond),
			time.Duration(sum.GCPauseMaxNS).Round(time.Microsecond))
		if sum.WatchdogIntervals > 0 {
			fmt.Fprintf(stdout, " · slot budget %v: %d/%d overruns",
				time.Duration(sum.WatchdogBudgetNS), sum.Overruns, sum.WatchdogIntervals)
			if sum.Overruns > 0 {
				fmt.Fprintf(stdout, " (worst +%v; gc %d / sched %d / user %d)",
					time.Duration(sum.MaxOverrunNS).Round(time.Microsecond),
					sum.StallsGC, sum.StallsSched, sum.StallsUser)
			}
		}
		fmt.Fprintln(stdout)
	}
	if o.delay && dl.Count() > 0 {
		var q [3]rtmac.Time
		for i, p := range []float64{0.5, 0.95, 0.99} {
			if q[i], err = dl.Quantile(p); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "delivery delay over %d packets: mean %v, p50 %v, p95 %v, p99 %v, max %v\n",
			dl.Count(), dl.Mean(), q[0], q[1], q[2], dl.Max())
	}
	if o.ledger != "" {
		if err := appendLedger(stdout, sim, cfg, intervals, rep, dl, o.ledger); err != nil {
			return err
		}
	}
	if o.timeline && tr != nil && intervals > 0 {
		fmt.Fprintln(stdout)
		if err := tr.RenderInterval(stdout, int64(intervals-1), 100); err != nil {
			return err
		}
	}
	if obsrv != nil {
		// Keep the final metrics, progress and dashboard inspectable after
		// the run; CI's serve-smoke curls the endpoints here and then sends
		// SIGTERM for a clean exit.
		fmt.Fprintf(stdout, "observability: run complete; serving final state on http://%s until interrupted\n",
			obsrv.Addr())
		<-ctx.Done()
	}
	return nil
}

// dumpTelemetry writes the metric registry in Prometheus text format to
// path, a JSON snapshot to path+".json", and the run manifest to
// path+".manifest.json".
func dumpTelemetry(sim *rtmac.Simulation, cfg rtmac.Config, intervals int, path string) error {
	tele := sim.Telemetry()
	if err := cli.WriteFile(path, tele.WritePrometheus); err != nil {
		return err
	}
	if err := cli.WriteFile(path+".json", tele.WriteJSON); err != nil {
		return err
	}
	manifest := sim.Manifest("rtmacsim", map[string]string{
		"intervals": fmt.Sprint(intervals),
		"links":     fmt.Sprint(len(cfg.Links)),
	})
	return cli.WriteFile(path+".manifest.json", manifest.WriteJSON)
}

// appendLedger reduces the finished run to one ledger record — total
// deficiency (with delay quantiles and the P² sketch partial) plus per-link
// delivery ratio and throughput, every point carrying its seed-tagged
// replication — and appends it to the content-addressed store at dir.
// A later `ledgerctl merge` of same-config different-seed records reproduces
// the multi-seed aggregate exactly.
func appendLedger(stdout io.Writer, sim *rtmac.Simulation, cfg rtmac.Config, intervals int, rep rtmac.Report, dl *rtmac.Delay, dir string) error {
	rec := ledger.NewRecorder()
	defRep := stats.Replication{
		Seed:       cfg.Seed,
		Value:      rep.TotalDeficiency,
		DelayP50:   dl.P50(),
		DelayP95:   dl.P95(),
		DelayP99:   dl.P99(),
		DelayCount: dl.Count(),
	}
	sketch := dl.State()
	rec.RecordReplication("run", rep.Protocol, 0, "deficiency", ledger.BetterLower, defRep, &sketch)
	for i, l := range rep.Links {
		rec.RecordReplication("run", rep.Protocol, float64(i), "delivery_ratio", ledger.BetterHigher,
			stats.Replication{Seed: cfg.Seed, Value: l.DeliveryRatio}, nil)
		rec.RecordReplication("run", rep.Protocol, float64(i), "throughput", ledger.BetterHigher,
			stats.Replication{Seed: cfg.Seed, Value: l.Throughput}, nil)
	}
	manifest := sim.Manifest("rtmacsim", map[string]string{
		"intervals": fmt.Sprint(intervals),
		"links":     fmt.Sprint(len(cfg.Links)),
	}).Raw()
	scenario := fmt.Sprintf("%s %d links", rep.Protocol, len(cfg.Links))
	record, err := rec.Finalize("run", scenario, manifest)
	if err != nil {
		return err
	}
	store, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	id, err := store.Append(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ledger: appended %s (%d points, seed %d) to %s\n",
		id[:12], len(record.Points), cfg.Seed, dir)
	return nil
}

// dumpFlightRecorder writes the retained event window to path (JSONL,
// auditable with -checkevents) and a human-readable timeline alongside.
// Best-effort: called on the strict-abort path too, where the run error is
// the news and a dump failure must not mask it.
func dumpFlightRecorder(stdout, stderr io.Writer, mon *rtmac.Monitor, path string) {
	if path == "" {
		return
	}
	if err := cli.WriteFile(path, mon.WriteFlightRecorder); err != nil {
		fmt.Fprintln(stderr, "rtmacsim: flight recorder:", err)
		return
	}
	if err := cli.WriteFile(path+".txt", mon.WriteFlightRecorderTimeline); err != nil {
		fmt.Fprintln(stderr, "rtmacsim: flight recorder:", err)
		return
	}
	fmt.Fprintf(stdout, "flight recorder: %d events -> %s (timeline %s.txt)\n",
		mon.FlightRecorderEvents(), path, path)
}

// reportViolations prints the monitor's verdict and details the retained
// violations when there are any.
func reportViolations(w io.Writer, mon *rtmac.Monitor) {
	if mon.Count() == 0 {
		fmt.Fprintln(w, "monitor: no invariant violations")
		return
	}
	fmt.Fprintf(w, "monitor: %d invariant violations\n", mon.Count())
	for _, v := range mon.Violations() {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// reportAlerts prints the watch engine's verdict: a clean-bill line when no
// detector fired, otherwise the counts plus the retained transitions.
func reportAlerts(out io.Writer, w *rtmac.Watch) {
	if w.Count() == 0 {
		fmt.Fprintln(out, "watch: no SLO alerts")
		return
	}
	fmt.Fprintf(out, "watch: %d SLO alerts (%d still firing)\n", w.Count(), w.Firing())
	for _, a := range w.Alerts() {
		fmt.Fprintf(out, "  %s\n", a)
	}
}

// checkEvents audits a JSONL event file end to end: every line must parse,
// at least one event must be present, and the recorded run must pass the
// invariant checkers (offline, with the monitoring configuration inferred
// from the stream). Used by `make telemetry-smoke`, `make monitor-smoke`
// and CI to guard both the stream format and the run it records.
func checkEvents(stdout, stderr io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := rtmac.DecodeEvents(f)
	if err != nil {
		return cli.Check(fmt.Errorf("%s: %w", path, err))
	}
	if len(events) == 0 {
		return cli.Finding(fmt.Errorf("%s: no events", path))
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	fmt.Fprintf(stdout, "%s: %d events ok (", path, len(events))
	for i, kind := range []string{"tx", "interval", "swap", "debt", "backoff", "prio", "violation", "alert"} {
		if i > 0 {
			fmt.Fprint(stdout, ", ")
		}
		fmt.Fprintf(stdout, "%d %s", kinds[kind], kind)
	}
	fmt.Fprintln(stdout, ")")
	violations, err := rtmac.AuditEvents(events)
	if err != nil {
		return cli.Finding(fmt.Errorf("%s: %w", path, err))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return cli.Finding(fmt.Errorf("%s: %d invariant violations", path, len(violations)))
	}
	fmt.Fprintf(stdout, "%s: invariant audit clean\n", path)
	return nil
}

// checkFile validates the file at path and prints the verdict validate
// returns for it: -checkperfetto, -checkmetrics and -checkhealth, which the
// smoke targets use to guard the trace, scrape and /api/health formats.
func checkFile(stdout io.Writer, path string, validate func(io.Reader) (string, error)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	verdict, err := validate(f)
	if err != nil {
		return cli.Check(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Fprintf(stdout, "%s: %s\n", path, verdict)
	return nil
}
