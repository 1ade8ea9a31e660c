// Command ledgerctl inspects and manipulates a run ledger — the durable,
// content-addressed store of run records that `figures -ledger` and
// `rtmacsim -ledger` append to (see internal/ledger and
// docs/OBSERVABILITY.md).
//
// Usage:
//
//	ledgerctl [-dir DIR] list
//	ledgerctl [-dir DIR] show REF
//	ledgerctl [-dir DIR] merge REF REF...
//	ledgerctl [-dir DIR] diff OLD NEW
//	ledgerctl [-dir DIR] equal A B
//
// REF is a full record ID, a unique prefix (≥4 hex chars), or "latest"
// (optionally "latest~N"). In diff, OLD and NEW may also be comma-separated
// reference sets; each set is merged in memory before comparing, so
// `diff a1,a2 b1,b2` compares two-seed aggregates directly.
//
// merge appends the combined record to the ledger and prints its ID. Because
// records carry replication-multiset partials, the merge is exactly the
// record a single process running all the seeds would have produced.
//
// equal exits 1 unless the two records (or sets) carry byte-identical point
// statistics: the canonical JSON of each point's partial, the bytes the
// record ID hashes. It is the merge-fidelity assertion used by
// `make ledger-smoke`.
//
// diff is the regression sentinel: it compares every matching point with
// Welch's t-test at the chosen confidence (falling back to a relative-delta
// threshold when either side has fewer than two replications), checks delay
// quantiles for growth, and exits non-zero when any point regressed
// significantly in its "worse" direction. With -events-old and -events-new
// pointing at the two runs' recorded JSONL event streams (rtmacsim
// -record-for-diff), diff drills from the statistical verdict down to the
// first divergent event — interval, link, kind, field delta — via the
// rundiff engine.
//
// Exit codes: 0 success (no difference found), 1 comparison found a
// difference (diff regression, equal inequality), 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"rtmac/internal/ledger"
	"rtmac/internal/rundiff"
)

func main() {
	var (
		dir        = flag.String("dir", ".ledger", "ledger directory")
		confidence = flag.Float64("confidence", 0.95, "diff: Welch test confidence level (0.90, 0.95 or 0.99)")
		rel        = flag.Float64("rel", 0.10, "diff: relative-delta threshold used when a side has <2 replications")
		quantRel   = flag.Float64("quantile-rel", 0.25, "diff: relative growth of delay p50/p95/p99 flagged as regression")
		eventsOld  = flag.String("events-old", "", "diff: OLD run's recorded JSONL event stream; with -events-new, drill to the first divergent event")
		eventsNew  = flag.String("events-new", "", "diff: NEW run's recorded JSONL event stream (see -events-old)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ledgerctl [-dir DIR] <list|show|merge|diff|equal> [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	store, err := ledger.Open(*dir)
	if err != nil {
		fatal(err)
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "list":
		err = runList(store, args)
	case "show":
		err = runShow(store, args)
	case "merge":
		err = runMerge(store, args)
	case "diff":
		err = runDiff(store, args, ledger.DiffOptions{
			Confidence:        *confidence,
			RelThreshold:      *rel,
			QuantileThreshold: *quantRel,
		}, *eventsOld, *eventsNew)
	case "equal":
		err = runEqual(store, args)
	default:
		fmt.Fprintf(os.Stderr, "ledgerctl: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func runList(store *ledger.Store, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("list takes no arguments")
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Printf("ledger %s is empty\n", store.Dir())
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tAPPENDED\tKIND\tTOOL\tSCENARIO\tCOMMIT\tSEEDS\tPOINTS")
	for _, e := range entries {
		commit := e.Commit
		if len(commit) > 12 {
			commit = commit[:12]
		}
		if e.Dirty {
			commit += "+dirty"
		}
		fmt.Fprintf(tw, "%.12s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\n",
			e.ID, e.Appended.Format("2006-01-02 15:04:05"), e.Kind, e.Tool,
			e.Scenario, commit, e.Seeds, e.Points)
	}
	return tw.Flush()
}

func runShow(store *ledger.Store, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show takes exactly one reference")
	}
	rec, err := store.Get(args[0])
	if err != nil {
		return err
	}
	id, err := rec.ID()
	if err != nil {
		return err
	}
	fmt.Printf("record   %s\n", id)
	fmt.Printf("kind     %s\n", rec.Kind)
	if rec.Scenario != "" {
		fmt.Printf("scenario %s\n", rec.Scenario)
	}
	if len(rec.Seeds) > 0 {
		seeds := make([]string, len(rec.Seeds))
		for i, s := range rec.Seeds {
			seeds[i] = fmt.Sprint(s)
		}
		fmt.Printf("seeds    %s\n", strings.Join(seeds, " "))
	}
	if m := rec.Manifest; m != nil {
		fmt.Printf("tool     %s\n", m.Tool)
		fmt.Printf("go       %s\n", m.GoVersion)
		if m.VCSRevision != "" {
			dirty := ""
			if m.VCSModified {
				dirty = " (dirty)"
			}
			fmt.Printf("commit   %s%s\n", m.VCSRevision, dirty)
		}
		if m.Hostname != "" {
			fmt.Printf("host     %s (GOMAXPROCS %d)\n", m.Hostname, m.GoMaxProcs)
		}
		if !m.Started.IsZero() {
			fmt.Printf("started  %s", m.Started.Format("2006-01-02 15:04:05 MST"))
			if m.Elapsed > 0 {
				fmt.Printf("  elapsed %s", m.Elapsed.Round(1e6))
			}
			fmt.Println()
		}
		if len(m.Config) > 0 {
			keys := make([]string, 0, len(m.Config))
			for k := range m.Config {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("config   %s=%s\n", k, m.Config[k])
			}
		}
		if h := m.Health; h != nil {
			fmt.Printf("health   peak heap %.1f MiB · peak %d goroutines · %d GC pauses (~%s total, max %s) over %d samples\n",
				float64(h.HeapLivePeakBytes)/(1<<20), h.GoroutinePeak, h.GCPauses,
				time.Duration(h.GCPauseTotalNS).Round(time.Microsecond),
				time.Duration(h.GCPauseMaxNS).Round(time.Microsecond), h.Samples)
			if h.WatchdogIntervals > 0 {
				verdict := fmt.Sprintf("health   slot budget %s: %d/%d overruns",
					time.Duration(h.WatchdogBudgetNS), h.Overruns, h.WatchdogIntervals)
				if h.Overruns > 0 {
					verdict += fmt.Sprintf(" · worst +%s (gc %d / sched %d / user %d)",
						time.Duration(h.MaxOverrunNS).Round(time.Microsecond),
						h.StallsGC, h.StallsSched, h.StallsUser)
				}
				fmt.Println(verdict)
			}
		}
	}
	if len(rec.Merged) > 0 {
		fmt.Printf("merged from %d records:\n", len(rec.Merged))
		for _, src := range rec.Merged {
			fmt.Printf("  %s\n", src)
		}
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FIGURE\tSERIES\tX\tMETRIC\tN\tMEAN\t±CI95\tP50\tP95\tP99")
	for _, p := range rec.Points {
		d50, d95, d99 := "-", "-", "-"
		if p.Summary.DelayCount > 0 {
			d50 = fmt.Sprintf("%.0f", p.Summary.DelayP50)
			d95 = fmt.Sprintf("%.0f", p.Summary.DelayP95)
			d99 = fmt.Sprintf("%.0f", p.Summary.DelayP99)
		}
		fmt.Fprintf(tw, "%s\t%s\t%g\t%s\t%d\t%.6g\t%.3g\t%s\t%s\t%s\n",
			p.Figure, p.Series, p.X, p.Metric, p.Summary.N, p.Summary.Mean,
			p.Summary.CIHalf, d50, d95, d99)
	}
	return tw.Flush()
}

func runMerge(store *ledger.Store, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("merge takes at least two references")
	}
	rec, err := loadSet(store, args)
	if err != nil {
		return err
	}
	id, err := store.Append(rec)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d records into %s (%d points, %d seeds)\n",
		len(args), id, len(rec.Points), len(rec.Seeds))
	return nil
}

func runDiff(store *ledger.Store, args []string, opts ledger.DiffOptions, eventsOld, eventsNew string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff takes exactly two references (each may be a comma-separated set)")
	}
	if (eventsOld == "") != (eventsNew == "") {
		return fmt.Errorf("-events-old and -events-new must be given together")
	}
	oldRec, err := loadSet(store, strings.Split(args[0], ","))
	if err != nil {
		return fmt.Errorf("old %q: %w", args[0], err)
	}
	newRec, err := loadSet(store, strings.Split(args[1], ","))
	if err != nil {
		return fmt.Errorf("new %q: %w", args[1], err)
	}
	report, err := ledger.Diff(oldRec, newRec, opts)
	if err != nil {
		return err
	}
	report.WriteText(os.Stdout)
	diverged := false
	if eventsOld != "" {
		// Deep mode: drill from the statistical verdict to the pathwise
		// cause — the first event where the two recorded runs part ways.
		diverged, err = deepEventDiff(eventsOld, eventsNew)
		if err != nil {
			return err
		}
	}
	if report.HasRegression() {
		fmt.Fprintf(os.Stderr, "ledgerctl: %d significant regressions\n", report.Regressions)
		os.Exit(1)
	}
	if diverged {
		fmt.Fprintln(os.Stderr, "ledgerctl: event streams diverge (no metric regression)")
		os.Exit(1)
	}
	return nil
}

// deepEventDiff runs the rundiff engine over the two recorded event streams
// and prints the first-divergence pointer. Returns whether they diverged.
func deepEventDiff(oldPath, newPath string) (bool, error) {
	fa, err := os.Open(oldPath)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(newPath)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	d, err := rundiff.DiffEvents(fa, fb, rundiff.Options{})
	if err != nil {
		return false, err
	}
	fmt.Println()
	fmt.Printf("event streams (%s vs %s):\n", oldPath, newPath)
	rundiff.WriteEventDiff(os.Stdout, d)
	return !d.Equal, nil
}

// runEqual asserts two records (or comma-separated sets, merged in memory)
// carry byte-identical point statistics — the merge-fidelity check: per-seed
// records merged must equal the combined run exactly, not just within noise.
func runEqual(store *ledger.Store, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("equal wants exactly two references (each may be a comma-separated set)")
	}
	a, err := loadSet(store, strings.Split(args[0], ","))
	if err != nil {
		return err
	}
	b, err := loadSet(store, strings.Split(args[1], ","))
	if err != nil {
		return err
	}
	if err := ledger.Equivalent(a, b); err != nil {
		fmt.Fprintf(os.Stderr, "ledgerctl: records differ: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("records carry identical statistics (%d points)\n", len(a.Points))
	return nil
}

// loadSet resolves refs and, when there are several, merges them in memory —
// the diff-side shorthand that compares seed sets without a prior `merge`.
func loadSet(store *ledger.Store, refs []string) (*ledger.Record, error) {
	recs := make([]*ledger.Record, 0, len(refs))
	ids := make([]string, 0, len(refs))
	for _, ref := range refs {
		ref = strings.TrimSpace(ref)
		if ref == "" {
			continue
		}
		id, err := store.Resolve(ref)
		if err != nil {
			return nil, err
		}
		rec, err := store.Get(id)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		ids = append(ids, id)
	}
	switch len(recs) {
	case 0:
		return nil, fmt.Errorf("no references given")
	case 1:
		return recs[0], nil
	default:
		return ledger.Merge(recs, ids)
	}
}

// fatal reports a usage or I/O failure. Exit code 2 keeps it distinct from
// exit 1, which means "the comparison found a difference" — scripts gating on
// diff/equal can tell a broken invocation from a real regression.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledgerctl:", err)
	os.Exit(2)
}
