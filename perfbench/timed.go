package main

import (
	"fmt"
	"runtime"
	rtm "runtime/metrics"
	"sync"
	"time"
)

// workloadNames lists the workloads in report order.
var workloadNames = []string{"kernel", "sweep", "observed", "replay"}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// workload is one benchmark workload. A pass is its fixed unit of work: the
// same seed always gives the same pass outputs, so every pass's digest must
// equal the first one's, and at the default seed the pinned reference.
type workload interface {
	// setup builds the workload's inputs and state and warms it up; it is
	// what set-up time measures.
	setup() error
	// prepare builds fresh state for the next pass. It is not timed.
	prepare() error
	// pass runs the fixed work, calling c.lap at every chunk boundary.
	pass(c *clock) passOut
}

// censusTaker is a workload that must run one untimed pass before timing to
// learn how many intervals a pass simulates; the census pass's digest must
// equal the timed passes'.
type censusTaker interface {
	census() (digest string, err error)
}

// passOut is one pass's result.
type passOut struct {
	digest    string
	units     int   // runs, figures or streams the pass attempted
	intervals int64 // simulated or replayed intervals
	err       error
}

func newWorkload(name string, seed uint64) workload {
	switch name {
	case "kernel":
		return &kernelWorkload{seed: seed}
	case "sweep":
		return &sweepWorkload{seed: seed}
	case "observed":
		return &observedWorkload{seed: seed}
	default:
		return &replayWorkload{seed: seed}
	}
}

const (
	// setupRepeats is how many times set-up runs; setup_s is their median.
	setupRepeats = 5
	// minPasses is the least number of timed passes, whatever the deadline.
	minPasses = 3
)

// clock cuts a pass into chunks. Chunk j of every pass is the same work.
type clock struct {
	last time.Time
	pass []float64 // milliseconds of the current pass's chunks
	peak *heapPeak
}

// lap closes the current chunk.
func (c *clock) lap() {
	now := time.Now()
	c.pass = append(c.pass, float64(now.Sub(c.last))/float64(time.Millisecond))
	c.last = now
}

// heap samples the heap now, at a point a workload knows to be a high-water
// mark, on top of the background sampling.
func (c *clock) heap() {
	if c.peak != nil {
		c.peak.sample()
	}
}

// heapPeak tracks the largest heap, live objects and garbage not yet swept,
// that a background sampler sees.
type heapPeak struct {
	mu    sync.Mutex // guards max and probe, which runtime/metrics fills in place
	max   uint64
	probe []rtm.Sample
	stop  chan struct{}
	wg    sync.WaitGroup
}

// heapPeakEvery is the background sampling period.
const heapPeakEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), probe: []rtm.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapPeakEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	rtm.Read(h.probe)
	h.max = max(h.max, h.probe[0].Value.Uint64())
}

// reset starts a new peak.
func (h *heapPeak) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.max = 0
}

// take samples once more and returns the peak since reset, in bytes.
func (h *heapPeak) take() uint64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// finish stops the sampler and waits for it.
func (h *heapPeak) finish() {
	close(h.stop)
	h.wg.Wait()
}

type memStats struct{ allocs, bytes uint64 }

var memSamples = []rtm.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readMem reads cumulative heap allocations without stopping the world or
// allocating. Only one goroutine may call it at a time.
func readMem() memStats {
	rtm.Read(memSamples)
	return memStats{allocs: memSamples[0].Value.Uint64(), bytes: memSamples[1].Value.Uint64()}
}

// timedRun measures one workload: set-up repeated setupRepeats times, then
// passes until the deadline (at least minPasses), every pass checked.
func timedRun(name string, seed uint64, budget time.Duration) (*outcome, error) {
	w := newWorkload(name, seed)
	out := &outcome{}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		out.sample("setup_s", time.Since(start).Seconds())
	}
	var census string
	if ct, ok := w.(censusTaker); ok {
		var err error
		if census, err = ct.census(); err != nil {
			return nil, fmt.Errorf("%s census: %w", name, err)
		}
	}
	c := &clock{peak: startHeapPeak()}
	var (
		first     string
		intervals int64
		passes    [][]float64 // chunk milliseconds of every complete pass
	)
	mem0 := readMem()
	deadline := time.Now().Add(budget)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Every pass starts from a collected heap, so the garbage collector
		// cycles fall at the same points of every pass.
		runtime.GC()
		c.peak.reset()
		start := time.Now()
		c.last, c.pass = start, make([]float64, 0, 32)
		res := w.pass(c)
		out.sample("pass_s", time.Since(start).Seconds())
		out.sample("pass_heap_mb", float64(c.peak.take())/(1<<20))
		if res.err != nil {
			out.check(false, "%s pass %d: %v", name, n, res.err)
			continue
		}
		intervals = res.intervals
		passes = append(passes, c.pass)
		out.sample("chunk_ms", c.pass...)
		if first == "" {
			first = res.digest
		}
		ok := res.digest == first
		if ok && seed == defaultSeed {
			ok = res.digest == pinned[name]
		}
		for u := 0; u < res.units; u++ {
			out.check(ok, "%s pass %d digest %s, want %s (first pass %s)", name, n, res.digest, pinned[name], first)
		}
	}
	mem1 := readMem()
	c.peak.finish()
	if census != "" {
		out.check(census == first, "%s census digest %s, timed passes %s", name, census, first)
	}
	if len(passes) == 0 || intervals == 0 {
		return nil, fmt.Errorf("%s: no pass completed", name)
	}
	wall := robustPass(passes) / 1000
	all := float64(intervals) * float64(len(passes))
	out.add("intervals_per_s", float64(intervals)/wall, "1/s")
	out.add("wall_s", wall, "s")
	out.add("allocs_per_interval", float64(mem1.allocs-mem0.allocs)/all, "count")
	out.add("bytes_per_interval", float64(mem1.bytes-mem0.bytes)/all, "B")
	out.add("peak_heap_mb", median(out.Samples["pass_heap_mb"]), "MB")
	out.add("setup_s", median(out.Samples["setup_s"]), "s")
	out.info("chunk_ms_p50", quantile(out.Samples["chunk_ms"], 0.5), "ms")
	out.info("chunk_ms_p95", quantile(out.Samples["chunk_ms"], 0.95), "ms")
	return out, nil
}

// robustPass estimates the host time of one pass, in milliseconds, as the
// sum over chunk positions of each position's fastest time across passes.
// Other tenants of a small shared host slow the simulator in bursts, from
// milliseconds to minutes; the fastest time per chunk position sees through
// them, where the median pass moves with the share of chunks they hit.
func robustPass(passes [][]float64) float64 {
	total := 0.0
	for j := range passes[0] {
		fastest := passes[0][j]
		for _, p := range passes[1:] {
			fastest = min(fastest, p[j])
		}
		total += fastest
	}
	return total
}
