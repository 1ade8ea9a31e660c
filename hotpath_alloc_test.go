package rtmac_test

import (
	"bytes"
	"io"
	"testing"

	"rtmac"
	"rtmac/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Steady-state allocation guard: the per-interval hot path must not allocate.
//
// Every layer under Simulation.Run — engine timer pool and slot clock, medium
// transmission pool, contention bookkeeping, protocol scratch, debt vectors,
// telemetry instrumentation — reuses memory once the first intervals have
// sized the pools. This test pins that contract with testing.AllocsPerRun so
// any future per-interval allocation fails CI instead of silently eroding
// throughput. See docs/PERFORMANCE.md for the discipline these guards
// enforce.
// ---------------------------------------------------------------------------

// newHotPathSim builds the control scenario used by the BenchmarkInterval*
// benchmarks: 10 links, Bernoulli 0.78 arrivals, 99% delivery ratio.
func newHotPathSim(tb testing.TB, protocol rtmac.Protocol) *rtmac.Simulation {
	tb.Helper()
	return newHotPathSimConflicts(tb, protocol, nil)
}

// newHotPathSimConflicts is newHotPathSim with an explicit conflict graph.
func newHotPathSimConflicts(tb testing.TB, protocol rtmac.Protocol, conflicts *rtmac.ConflictGraph) *rtmac.Simulation {
	tb.Helper()
	links := make([]rtmac.Link, 10)
	for i := range links {
		links[i] = rtmac.Link{
			SuccessProb:   0.7,
			Arrivals:      rtmac.MustBernoulliArrivals(0.78),
			DeliveryRatio: 0.99,
		}
	}
	s, err := rtmac.NewSimulation(rtmac.Config{
		Seed:      1,
		Profile:   rtmac.ControlProfile(),
		Links:     links,
		Conflicts: conflicts,
		Protocol:  protocol,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// hotPathConflicts returns the two-clique spatial-reuse graph the
// conflict-path guards and benchmarks run under.
func hotPathConflicts(t *testing.T) *rtmac.ConflictGraph {
	t.Helper()
	g, err := rtmac.CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hotPathProtocols lists every policy whose interval loop must stay
// allocation-free in steady state.
func hotPathProtocols() map[string]rtmac.Protocol {
	return map[string]rtmac.Protocol{
		"dbdp":      rtmac.DBDP(),
		"ldf":       rtmac.LDF(),
		"fcsma":     rtmac.FCSMA(),
		"framecsma": rtmac.FrameCSMA(),
		"tdma":      rtmac.TDMA(),
	}
}

// TestHotPathZeroAlloc runs each protocol past its warm-up (the first
// intervals size the timer, transmission, and scratch pools) and then demands
// exactly zero allocations per simulated interval with telemetry events
// disabled (no sinks attached — the default).
func TestHotPathZeroAlloc(t *testing.T) {
	const (
		warmup = 200 // intervals to fill every pool and scratch buffer
		runs   = 100 // intervals measured by AllocsPerRun
	)
	for name, protocol := range hotPathProtocols() {
		t.Run(name, func(t *testing.T) {
			s := newHotPathSim(t, protocol)
			if err := s.Run(warmup); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if err := s.Run(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per steady-state interval, want 0", name, allocs)
			}
		})
	}
}

// TestHotPathZeroAllocConflictGraph extends the zero-allocation contract to
// the conflict-graph medium: both the complete graph (which must ride the
// exact legacy code paths) and a genuinely sparse two-clique graph (which
// exercises the per-neighborhood contention clock, the graph-mode protocol
// branches, and the medium's neighborhood busy counters) must stay
// allocation-free per interval once warm, with observability disabled.
func TestHotPathZeroAllocConflictGraph(t *testing.T) {
	complete, err := rtmac.CompleteConflicts(10)
	if err != nil {
		t.Fatal(err)
	}
	requireZeroAlloc(t, complete, nil)
}

// allHotPathProtocols is every shipped policy.
func allHotPathProtocols() map[string]rtmac.Protocol {
	m := hotPathProtocols()
	m["eldf"] = rtmac.ELDF(rtmac.PaperInfluence())
	m["dcf"] = rtmac.DCF()
	return m
}

// requireZeroAlloc runs every protocol on the given complete graph and on
// the two-clique graph, with a plane attached by attach when it is non-nil,
// and demands zero allocations per steady-state interval. The check attach
// returns, when non-nil, runs after the measurement to prove the plane
// really saw the intervals.
func requireZeroAlloc(t *testing.T, complete *rtmac.ConflictGraph, attach func(*testing.T, *rtmac.Simulation) func(*testing.T)) {
	const (
		warmup = 200 // intervals to fill every pool and scratch buffer
		runs   = 100 // intervals measured by AllocsPerRun
	)
	graphs := map[string]*rtmac.ConflictGraph{
		"complete":   complete,
		"two-clique": hotPathConflicts(t),
	}
	for gName, graph := range graphs {
		for pName, protocol := range allHotPathProtocols() {
			t.Run(gName+"/"+pName, func(t *testing.T) {
				s := newHotPathSimConflicts(t, protocol, graph)
				var check func(*testing.T)
				if attach != nil {
					check = attach(t, s)
				}
				if err := s.Run(warmup); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(runs, func() {
					if err := s.Run(1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s: %.1f allocs per steady-state interval, want 0", gName, pName, allocs)
				}
				if check != nil {
					check(t)
				}
			})
		}
	}
}

// TestHotPathZeroAllocStrictMonitor holds the strict invariant monitor — the
// default of every figure sweep — and its flight recorder to the
// zero-allocation contract: events are built in producer scratch, every
// checker reads them in place, and the recorder reuses evicted intervals'
// storage.
func TestHotPathZeroAllocStrictMonitor(t *testing.T) {
	requireZeroAlloc(t, nil, func(t *testing.T, s *rtmac.Simulation) func(*testing.T) {
		mon, err := s.EnableMonitor(rtmac.MonitorConfig{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		return func(t *testing.T) {
			if mon.Count() != 0 {
				t.Errorf("monitor reported %d violations, first: %v", mon.Count(), mon.Violations()[0])
			}
		}
	})
}

// TestHotPathZeroAllocStream holds the JSONL event stream to the same
// contract: the encoder appends each event into a reused line buffer.
func TestHotPathZeroAllocStream(t *testing.T) {
	requireZeroAlloc(t, nil, func(t *testing.T, s *rtmac.Simulation) func(*testing.T) {
		stream := s.StreamEvents(io.Discard)
		return func(t *testing.T) {
			if stream.Count() == 0 {
				t.Error("no events were streamed")
			}
			if err := stream.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestDecoderZeroAlloc holds the event decoder to the same contract once
// warm: Next over recorded control and two-clique streams (prio and conflict
// payloads included) and Decode over the control events as SSE payloads
// allocate nothing per event. One stream carries a line the hand-written path
// does not take — an alert whose msg AppendJSON escapes — in the middle of
// the measured stretch; decoding must return to that path after it.
func TestDecoderZeroAlloc(t *testing.T) {
	record := func(s *rtmac.Simulation) []byte {
		var buf bytes.Buffer
		stream := s.StreamEvents(&buf)
		if err := s.Run(300); err != nil {
			t.Fatal(err)
		}
		if err := stream.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	control := record(newHotPathSim(t, rtmac.DBDP()))
	twoClique := record(newHotPathSimConflicts(t, rtmac.DBDP(), hotPathConflicts(t)))
	alert, err := telemetry.Event{K: 150, At: 300000, Link: 3, Kind: telemetry.EventAlert,
		Check: "burn_rate", Msg: "miss rate 0.2 > budget 0.1"}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(control, []byte("\n"))
	mid := len(lines) / 2
	escaped := bytes.Join([][]byte{bytes.Join(lines[:mid], nil), alert, []byte("\n"), bytes.Join(lines[mid:], nil)}, nil)

	for name, data := range map[string][]byte{"control": control, "two-clique": twoClique, "escaped-alert": escaped} {
		t.Run("Next/"+name, func(t *testing.T) {
			events := bytes.Count(data, []byte("\n")) - 1 // the header is no event
			warm := events / 4
			dec := telemetry.NewDecoder(bytes.NewReader(data))
			for i := 0; i < warm; i++ {
				if _, err := dec.Next(); err != nil {
					t.Fatal(err)
				}
			}
			// AllocsPerRun makes one extra call before it measures.
			allocs := testing.AllocsPerRun(events-warm-1, func() {
				if _, err := dec.Next(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per decoded event, want 0", allocs)
			}
			if _, err := dec.Next(); err != io.EOF {
				t.Errorf("after the last event: %v, want EOF", err)
			}
		})
	}
	t.Run("Decode/control", func(t *testing.T) {
		payloads := bytes.Split(bytes.TrimSpace(control), []byte("\n"))[1:]
		var dec telemetry.Decoder
		i := 0
		allocs := testing.AllocsPerRun(len(payloads)-1, func() {
			if _, err := dec.Decode(payloads[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%.1f allocs per decoded payload, want 0", allocs)
		}
	})
}
