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
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtmac"
	"rtmac/internal/health"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
	"rtmac/scenario"
	"rtmac/topology"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON scenario file (overrides the other flags; see package rtmac/scenario)")
		protoName  = flag.String("protocol", "dbdp", "dbdp | ldf | eldf | fcsma | framecsma | tdma | dcf")
		profile    = flag.String("profile", "control", "video | control")
		links      = flag.Int("links", 10, "number of links")
		p          = flag.Float64("p", 0.7, "per-link delivery probability")
		arrivals   = flag.String("arrivals", "bernoulli", "bernoulli | video | fixed")
		rate       = flag.Float64("rate", 0.78, "arrival parameter: Bernoulli p, video alpha, or fixed count")
		ratio      = flag.Float64("ratio", 0.99, "required delivery ratio")
		intervals  = flag.Int("intervals", 20000, "simulated intervals")
		seed       = flag.Uint64("seed", 1, "random seed")
		pairs      = flag.Int("pairs", 1, "DB-DP swap pairs per interval (Remark 6 extension)")
		timeline   = flag.Bool("timeline", false, "render the final interval as an ASCII packet timeline")
		delay      = flag.Bool("delay", false, "report delivery-delay statistics (mean, p50/p95/p99, max)")
		telemetry  = flag.String("telemetry", "", "write Prometheus-format metrics to this file (plus .json snapshot and .manifest.json alongside)")
		events     = flag.String("events", "", "stream structured JSONL events (tx, interval, swap, debt) to this file")
		sampleTx   = flag.Int("sample-tx", 1, "keep one in every N per-transmission events in the event stream (1 keeps all)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
		checkev    = flag.String("checkevents", "", "audit a JSONL event file written by -events: validate the format and run the invariant checkers over it, then exit")
		monitorOn  = flag.Bool("monitor", false, "run the invariant monitor over the live event stream and report violations")
		strict     = flag.Bool("strict", false, "with the monitor, abort the run at the first invariant violation (implies -monitor)")
		perfetto   = flag.String("perfetto", "", "export a Perfetto/Chrome trace_event JSON file of the run (open at ui.perfetto.dev)")
		flight     = flag.String("flightrecorder", "", "dump the flight recorder (last 64 intervals of events) to this JSONL file, plus a .txt timeline alongside (implies -monitor)")
		checkperf  = flag.String("checkperfetto", "", "validate a trace_event JSON file written by -perfetto, print its event count, and exit")
		serve      = flag.String("serve", "", "serve the live observability plane (dashboard, /metrics, /api/progress, /api/links, /events SSE) on this address (e.g. :8080); after the run the server stays up with the final state until interrupted")
		checkmet   = flag.String("checkmetrics", "", "validate a Prometheus text-format metrics file (e.g. fetched from /metrics or written by -telemetry), print its sample count, and exit")
		journeys   = flag.String("journeys", "", "stream sampled per-packet journeys (contention rounds, attempts, deadline-miss attribution) as JSONL to this file; query with cmd/tracequery")
		jSample    = flag.Int("journey-sample", 1, "record one in every N packet journeys (1 records all)")
		tracePath  = flag.String("trace", "", "write the packet transmission log (most recent -trace-cap records) to this file after the run")
		traceCap   = flag.Int("trace-cap", 65536, "transmission records retained by -trace")
		ledgerFlag = flag.String("ledger", "", "append the run's final metrics (with mergeable partials) to the run ledger in DIR; inspect with ledgerctl")
		healthOn   = flag.Bool("health", false, "enable the runtime health plane: GC/scheduler telemetry, slot-budget watchdog, /api/health on -serve, health summary in manifests")
		ringDir    = flag.String("profilering", "", "capture continuous CPU+heap pprof snapshots into a bounded ring in DIR (implies -health)")
		slotBudget = flag.Duration("slot-budget", 0, "wall-clock budget per simulated interval for the -health watchdog (default: one simulated interval; negative disables the watchdog)")
		checkhlth  = flag.String("checkhealth", "", "validate an /api/health JSON document saved to this file, then exit")
		recordDiff = flag.String("record-for-diff", "", "record everything rundiff aligns on: events to PREFIX.events.jsonl and full-sample journeys to PREFIX.journeys.jsonl (overrides -events/-journeys/-journey-sample)")
		watchOn    = flag.Bool("watch", false, "run the SLO conformance engine over the live event stream: burn-rate, delivery CUSUM, debt-drift and expiry-spike detectors against the requirement vector (or the scenario's slo section); alerts flow into the event stream and /api/alerts")
		sloBudget  = flag.Float64("slo-budget", 0, "deadline-miss budget for the -watch burn-rate detector, as a fraction of each link's target (0 = scenario's slo budget, or the default 0.1)")
		perturbK   = flag.Int64("perturb-interval", -1, "inject one extra packet arrival at this interval (0-based; -1 = off); with -record-for-diff this is the rundiff divergence drill")
		perturbLnk = flag.Int("perturb-link", 0, "link receiving the -perturb-interval injection")
		perturbN   = flag.Int("perturb-extra", 1, "packets injected by -perturb-interval")
	)
	flag.Parse()
	if *sampleTx < 1 {
		fatal(fmt.Errorf("-sample-tx %d must be at least 1 (1 keeps every tx event)", *sampleTx))
	}
	if *jSample < 1 {
		fatal(fmt.Errorf("-journey-sample %d must be at least 1 (1 records every packet)", *jSample))
	}
	if *pairs < 1 {
		fatal(fmt.Errorf("-pairs %d must be at least 1", *pairs))
	}
	if *checkev != "" {
		if err := checkEvents(*checkev); err != nil {
			fatal(err)
		}
		return
	}
	if *checkperf != "" {
		if err := checkPerfetto(*checkperf); err != nil {
			fatal(err)
		}
		return
	}
	if *checkmet != "" {
		if err := checkMetrics(*checkmet); err != nil {
			fatal(err)
		}
		return
	}
	if *checkhlth != "" {
		if err := checkHealthDoc(*checkhlth); err != nil {
			fatal(err)
		}
		return
	}
	showTimeline = *timeline
	showDelay = *delay
	telemetryPath = *telemetry
	eventsPath = *events
	eventSampleTx = *sampleTx
	cpuprofilePath = *cpuprofile
	memprofilePath = *memprofile
	monitorEnabled = *monitorOn || *strict || *flight != ""
	monitorStrict = *strict
	perfettoPath = *perfetto
	flightPath = *flight
	serveAddr = *serve
	journeysPath = *journeys
	journeySample = *jSample
	traceLogPath = *tracePath
	traceLogCap = *traceCap
	ledgerDir = *ledgerFlag
	healthEnabled = *healthOn || *ringDir != ""
	profileRingDir = *ringDir
	healthSlotBudget = *slotBudget
	watchEnabled = *watchOn || *sloBudget != 0
	watchSLOBudget = *sloBudget
	if *recordDiff != "" {
		eventsPath = *recordDiff + ".events.jsonl"
		journeysPath = *recordDiff + ".journeys.jsonl"
		journeySample = 1
	}
	if *perturbK >= 0 {
		perturbSpec = &rtmac.Perturbation{K: *perturbK, Link: *perturbLnk, Extra: *perturbN}
	}

	if *configPath != "" {
		cfg, net, configIntervals, err := scenario.LoadAnyFile(*configPath)
		if err != nil {
			fatal(err)
		}
		topo = net
		runAndReport(cfg, configIntervals)
		return
	}

	// The flag path is a one-group scenario document, so flags and -config
	// files resolve names through the same code.
	cfg, n, err := scenario.Build(scenario.Document{
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
	if err != nil {
		fatal(err)
	}
	runAndReport(cfg, n)
}

// The flag globals are set before runAndReport runs; topo carries the named
// topology when -config pointed at one.
var (
	showTimeline     bool
	showDelay        bool
	telemetryPath    string
	eventsPath       string
	eventSampleTx    int
	cpuprofilePath   string
	memprofilePath   string
	monitorEnabled   bool
	monitorStrict    bool
	perfettoPath     string
	flightPath       string
	serveAddr        string
	journeysPath     string
	journeySample    int
	traceLogPath     string
	traceLogCap      int
	ledgerDir        string
	healthEnabled    bool
	profileRingDir   string
	healthSlotBudget time.Duration
	watchEnabled     bool
	watchSLOBudget   float64
	perturbSpec      *rtmac.Perturbation
	topo             *topology.Network
)

func runAndReport(cfg rtmac.Config, intervals int) {
	cfg.Perturb = perturbSpec
	sim, err := rtmac.NewSimulation(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Conflicts != nil {
		fmt.Printf("%s\n", cfg.Conflicts)
	}
	var tr *rtmac.Trace
	if showTimeline || traceLogPath != "" {
		capacity := traceLogCap
		if traceLogPath == "" || (showTimeline && capacity < 4096) {
			capacity = 4096
		}
		if tr, err = sim.EnableTrace(capacity); err != nil {
			fatal(err)
		}
	}
	var jt *rtmac.Journeys
	var journeysFile *os.File
	if journeysPath != "" {
		journeysFile, err = os.Create(journeysPath)
		if err != nil {
			fatal(err)
		}
		if jt, err = sim.EnableJourneys(journeysFile, journeySample); err != nil {
			fatal(err)
		}
	}
	var dl *rtmac.Delay
	if showDelay || ledgerDir != "" {
		if dl, err = sim.EnableDelay(); err != nil {
			fatal(err)
		}
	}
	var stream *rtmac.EventStream
	var eventsFile *os.File
	if eventsPath != "" {
		eventsFile, err = os.Create(eventsPath)
		if err != nil {
			fatal(err)
		}
		var opts []rtmac.EventOption
		if eventSampleTx > 1 {
			opts = append(opts, rtmac.SampleEvents("tx", eventSampleTx))
		}
		stream = sim.StreamEvents(eventsFile, opts...)
	}
	var trace *rtmac.PerfettoTrace
	var perfettoFile *os.File
	if perfettoPath != "" {
		perfettoFile, err = os.Create(perfettoPath)
		if err != nil {
			fatal(err)
		}
		trace = sim.ExportPerfetto(perfettoFile)
	}
	var mon *rtmac.Monitor
	if monitorEnabled {
		mon, err = sim.EnableMonitor(rtmac.MonitorConfig{Strict: monitorStrict})
		if err != nil {
			fatal(err)
		}
	}
	var hp *rtmac.Health
	if healthEnabled {
		hp, err = sim.EnableHealth(rtmac.HealthConfig{
			SlotBudget: healthSlotBudget,
			ProfileDir: profileRingDir,
		})
		if err != nil {
			fatal(err)
		}
		if profileRingDir != "" {
			fmt.Printf("health: runtime collector + slot-budget watchdog on; profile ring -> %s\n", profileRingDir)
		} else {
			fmt.Println("health: runtime collector + slot-budget watchdog on")
		}
	}
	var wtch *rtmac.Watch
	if watchEnabled {
		wtch, err = sim.EnableWatch(rtmac.WatchConfig{Budget: watchSLOBudget})
		if err != nil {
			fatal(err)
		}
		fmt.Println("watch: SLO conformance engine on (burn rate, delivery CUSUM, debt drift, expiry spike)")
	}
	var obsrv *rtmac.Observability
	if serveAddr != "" {
		obsrv, err = sim.ServeObservability(serveAddr, intervals)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability: serving on http://%s (dashboard, /metrics, /api/progress, /events)\n",
			obsrv.Addr())
		if ledgerDir != "" {
			if err := obsrv.ServeRunLedger(ledgerDir); err != nil {
				fatal(err)
			}
			fmt.Printf("observability: run history from %s on /history and /api/runs\n", ledgerDir)
		}
	}
	if cpuprofilePath != "" {
		stopProfile, err := health.StartCPUProfile(cpuprofilePath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopProfile(); err != nil {
				fmt.Fprintln(os.Stderr, "rtmacsim:", err)
			}
		}()
	}
	start := time.Now()
	runErr := sim.Run(intervals)
	if runErr != nil && mon != nil {
		// A strict-mode abort still gets its post-mortem artifacts: the
		// violating window is exactly what the flight recorder retains.
		dumpFlightRecorder(mon)
		reportViolations(mon)
	}
	if runErr != nil && wtch != nil {
		reportAlerts(wtch)
	}
	if runErr != nil {
		if trace != nil {
			trace.Flush()
		}
		fatal(runErr)
	}
	if stream != nil {
		if err := stream.Flush(); err != nil {
			fatal(err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
	}
	if trace != nil {
		if err := trace.Flush(); err != nil {
			fatal(err)
		}
		if err := perfettoFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("perfetto trace: %d events -> %s\n", trace.Count(), perfettoPath)
	}
	if jt != nil {
		if err := jt.Flush(); err != nil {
			fatal(err)
		}
		if err := journeysFile.Close(); err != nil {
			fatal(err)
		}
		agg := jt.Attribution()
		fmt.Printf("journeys: %d of %d packets recorded -> %s\n", jt.Count(), jt.Seen(), journeysPath)
		fmt.Printf("  delivered %d | expired-in-queue %d | lost-to-channel %d | lost-to-collision %d | never-won-contention %d\n",
			agg.Delivered, agg.ExpiredInQueue, agg.LostToChannel, agg.LostToCollision, agg.NeverWon)
	}
	if traceLogPath != "" {
		f, err := os.Create(traceLogPath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteLog(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d transmissions observed; log -> %s\n", tr.Total(), traceLogPath)
	}
	if mon != nil {
		dumpFlightRecorder(mon)
		reportViolations(mon)
	}
	if wtch != nil {
		reportAlerts(wtch)
	}
	if hp != nil && serveAddr == "" {
		// Final collector round before manifests are stamped; with -serve the
		// plane stays live (the ring keeps capturing) until the signal below.
		hp.Stop()
	}
	if memprofilePath != "" {
		if err := health.WriteHeapProfile(memprofilePath); err != nil {
			fatal(err)
		}
	}
	if telemetryPath != "" {
		if err := dumpTelemetry(sim, cfg, intervals); err != nil {
			fatal(err)
		}
	}
	rep := sim.Report()
	fmt.Print(rep)
	if topo != nil {
		fmt.Println("link names:")
		for i := range rep.Links {
			name, err := topo.LinkName(i)
			if err != nil {
				fatal(err)
			}
			kind, err := topo.KindOf(name)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %4d = %s (%s)\n", i, name, kind)
		}
	}
	fmt.Printf("simulated %d intervals (%v of channel time) in %v\n",
		intervals, sim.Now().Std(), time.Since(start).Round(time.Millisecond))
	if hp != nil {
		sum := hp.Summary()
		fmt.Printf("health: %d samples · peak heap %.1f MiB · %d GC pauses (~%v total, max %v)",
			sum.Samples, float64(sum.HeapLivePeakBytes)/(1<<20), sum.GCPauses,
			time.Duration(sum.GCPauseTotalNS).Round(time.Microsecond),
			time.Duration(sum.GCPauseMaxNS).Round(time.Microsecond))
		if sum.WatchdogIntervals > 0 {
			fmt.Printf(" · slot budget %v: %d/%d overruns",
				time.Duration(sum.WatchdogBudgetNS), sum.Overruns, sum.WatchdogIntervals)
			if sum.Overruns > 0 {
				fmt.Printf(" (worst +%v; gc %d / sched %d / user %d)",
					time.Duration(sum.MaxOverrunNS).Round(time.Microsecond),
					sum.StallsGC, sum.StallsSched, sum.StallsUser)
			}
		}
		fmt.Println()
	}
	if showDelay && dl.Count() > 0 {
		p50, err := dl.Quantile(0.5)
		if err != nil {
			fatal(err)
		}
		p95, err := dl.Quantile(0.95)
		if err != nil {
			fatal(err)
		}
		p99, err := dl.Quantile(0.99)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("delivery delay over %d packets: mean %v, p50 %v, p95 %v, p99 %v, max %v\n",
			dl.Count(), dl.Mean(), p50, p95, p99, dl.Max())
	}
	if ledgerDir != "" {
		if err := appendLedger(sim, cfg, intervals, rep, dl); err != nil {
			fatal(err)
		}
	}
	if showTimeline && tr != nil && intervals > 0 {
		fmt.Println()
		if err := tr.RenderInterval(os.Stdout, int64(intervals-1), 100); err != nil {
			fatal(err)
		}
	}
	if obsrv != nil {
		// Keep the final metrics, progress and dashboard inspectable after
		// the run; CI's serve-smoke curls the endpoints here and then sends
		// SIGTERM for a clean exit.
		fmt.Printf("observability: run complete; serving final state on http://%s until interrupted\n",
			obsrv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if hp != nil {
			hp.Stop()
		}
		if err := obsrv.Close(); err != nil {
			fatal(err)
		}
	}
}

// dumpTelemetry writes the metric registry in Prometheus text format to
// telemetryPath, a JSON snapshot to telemetryPath+".json", and the run
// manifest to telemetryPath+".manifest.json".
func dumpTelemetry(sim *rtmac.Simulation, cfg rtmac.Config, intervals int) error {
	write := func(path string, render func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	tele := sim.Telemetry()
	if err := write(telemetryPath, func(f *os.File) error { return tele.WritePrometheus(f) }); err != nil {
		return err
	}
	if err := write(telemetryPath+".json", func(f *os.File) error { return tele.WriteJSON(f) }); err != nil {
		return err
	}
	manifest := sim.Manifest("rtmacsim", map[string]string{
		"intervals": fmt.Sprint(intervals),
		"links":     fmt.Sprint(len(cfg.Links)),
	})
	return write(telemetryPath+".manifest.json", func(f *os.File) error { return manifest.WriteJSON(f) })
}

// appendLedger reduces the finished run to one ledger record — total
// deficiency (with delay quantiles and the P² sketch partial) plus per-link
// delivery ratio and throughput, every point carrying its seed-tagged
// replication — and appends it to the content-addressed store at ledgerDir.
// A later `ledgerctl merge` of same-config different-seed records reproduces
// the multi-seed aggregate exactly.
func appendLedger(sim *rtmac.Simulation, cfg rtmac.Config, intervals int, rep rtmac.Report, dl *rtmac.Delay) error {
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
	store, err := ledger.Open(ledgerDir)
	if err != nil {
		return err
	}
	id, err := store.Append(record)
	if err != nil {
		return err
	}
	fmt.Printf("ledger: appended %s (%d points, seed %d) to %s\n",
		id[:12], len(record.Points), cfg.Seed, ledgerDir)
	return nil
}

// dumpFlightRecorder writes the retained event window to flightPath (JSONL,
// auditable with -checkevents) and a human-readable timeline alongside.
// Best-effort: called on the strict-abort path too, where the run error is
// the news and a dump failure must not mask it.
func dumpFlightRecorder(mon *rtmac.Monitor) {
	if flightPath == "" {
		return
	}
	write := func(path string, render func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(flightPath, mon.WriteFlightRecorder); err != nil {
		fmt.Fprintln(os.Stderr, "rtmacsim: flight recorder:", err)
		return
	}
	if err := write(flightPath+".txt", mon.WriteFlightRecorderTimeline); err != nil {
		fmt.Fprintln(os.Stderr, "rtmacsim: flight recorder:", err)
		return
	}
	fmt.Printf("flight recorder: %d events -> %s (timeline %s.txt)\n",
		mon.FlightRecorderEvents(), flightPath, flightPath)
}

// reportViolations prints the monitor's verdict and details the retained
// violations when there are any.
func reportViolations(mon *rtmac.Monitor) {
	if mon.Count() == 0 {
		fmt.Println("monitor: no invariant violations")
		return
	}
	fmt.Printf("monitor: %d invariant violations\n", mon.Count())
	for _, v := range mon.Violations() {
		fmt.Printf("  %s\n", v)
	}
}

// reportAlerts prints the watch engine's verdict: a clean-bill line when no
// detector fired, otherwise the counts plus the retained transitions.
func reportAlerts(w *rtmac.Watch) {
	if w.Count() == 0 {
		fmt.Println("watch: no SLO alerts")
		return
	}
	fmt.Printf("watch: %d SLO alerts (%d still firing)\n", w.Count(), w.Firing())
	for _, a := range w.Alerts() {
		fmt.Printf("  %s\n", a)
	}
}

// checkEvents audits a JSONL event file end to end: every line must parse,
// at least one event must be present, and the recorded run must pass the
// invariant checkers (offline, with the monitoring configuration inferred
// from the stream). Used by `make telemetry-smoke`, `make monitor-smoke`
// and CI to guard both the stream format and the run it records.
func checkEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := rtmac.DecodeEvents(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no events", path)
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	fmt.Printf("%s: %d events ok (", path, len(events))
	for i, kind := range []string{"tx", "interval", "swap", "debt", "backoff", "prio", "violation", "alert"} {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%d %s", kinds[kind], kind)
	}
	fmt.Println(")")
	violations, err := rtmac.AuditEvents(events)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		return fmt.Errorf("%s: %d invariant violations", path, len(violations))
	}
	fmt.Printf("%s: invariant audit clean\n", path)
	return nil
}

// checkMetrics validates a Prometheus text-format metrics file — one written
// by -telemetry or scraped from a -serve plane's /metrics endpoint — and
// prints its sample count. Used by `make serve-smoke` and CI to guard the
// scrape format.
func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := rtmac.ValidatePrometheusText(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if n == 0 {
		return fmt.Errorf("%s: no samples", path)
	}
	fmt.Printf("%s: %d samples ok\n", path, n)
	return nil
}

// checkHealthDoc validates an /api/health JSON document saved to a file.
// Used by `make health-smoke` and CI to guard the endpoint's shape.
func checkHealthDoc(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rtmac.ValidateHealthDoc(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: health document ok\n", path)
	return nil
}

// checkPerfetto validates a trace_event JSON file written by -perfetto and
// prints its event count. Used by `make monitor-smoke` and CI to guard that
// exported traces load in a viewer.
func checkPerfetto(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := rtmac.ValidatePerfettoTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: %d trace events ok\n", path, n)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtmacsim:", err)
	os.Exit(1)
}
