package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"

	"rtmac/internal/arrival"
	"rtmac/internal/core"
	"rtmac/internal/mac"
	"rtmac/internal/mac/dcf"
	"rtmac/internal/mac/fcsma"
	"rtmac/internal/mac/framecsma"
	"rtmac/internal/mac/ldf"
	"rtmac/internal/mac/tdma"
	"rtmac/internal/medium"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
)

// kernelConfig is one simulator configuration of the kernel workload.
type kernelConfig struct {
	name     string
	protocol string
	video    bool // video profile, 20 links, video arrivals α=0.55, ratio 0.9
	cliques  bool // two 5-cliques instead of the complete conflict graph
}

// kernelConfigs are the seven cmd/benchtrend configurations (control
// profile, 10 links, Bernoulli 0.78, p=0.7, ratio 0.99) plus dbdp-video20.
var kernelConfigs = []kernelConfig{
	{name: "dbdp", protocol: "dbdp"},
	{name: "ldf", protocol: "ldf"},
	{name: "fcsma", protocol: "fcsma"},
	{name: "framecsma", protocol: "framecsma"},
	{name: "tdma", protocol: "tdma"},
	{name: "dcf", protocol: "dcf"},
	{name: "dbdp-conflict", protocol: "dbdp", cliques: true},
	{name: "dbdp-video20", protocol: "dbdp", video: true},
}

const (
	// kernelBlock is the intervals each configuration runs per round; one
	// round over all configurations is one chunk.
	kernelBlock = 100
	// kernelRounds is the rounds in one pass.
	kernelRounds = 25
	// kernelWarmup is the intervals each configuration runs during set-up.
	kernelWarmup = 500
)

// successProb is p for every link of every configuration.
const successProb = 0.7

// network is one simulated network composed the way rtmac.NewSimulation
// composes it (and experiment.runOne, minus the delay sketch).
type network struct {
	cfg kernelConfig
	nw  *mac.Network
	col *metrics.Collector
	req []float64
	// observer is the tracing decorator around the collector, when traced.
	observer *tracedObserver
}

// newNetwork builds cfg at seed; a non-nil tracer wraps the arrival process,
// the protocol and the observer in span decorators and brackets every
// interval with a root span.
func newNetwork(cfg kernelConfig, seed uint64, tr *tracer) (*network, error) {
	prof, links, ratio := phy.Control(), 10, 0.99
	var (
		proc arrival.Process
		err  error
	)
	if cfg.video {
		prof, links, ratio = phy.Video(), 20, 0.9
		proc, err = arrival.PaperVideo(0.55)
	} else {
		proc, err = arrival.NewBernoulli(0.78)
	}
	if err != nil {
		return nil, err
	}
	probs := make([]float64, links)
	req := make([]float64, links)
	procs := make([]arrival.Process, links)
	for i := range probs {
		probs[i], req[i], procs[i] = successProb, ratio*proc.Mean(), proc
	}
	av, err := arrival.NewIndependent(procs...)
	if err != nil {
		return nil, err
	}
	col, err := metrics.NewCollector(req)
	if err != nil {
		return nil, err
	}
	prot, err := buildProtocol(cfg.protocol, links)
	if err != nil {
		return nil, err
	}
	var graph *medium.Graph
	if cfg.cliques {
		if graph, err = medium.CliqueGraph(links, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}); err != nil {
			return nil, err
		}
	}
	n := &network{cfg: cfg, col: col, req: req}
	var (
		arrivals arrival.VectorProcess = av
		observer mac.Observer          = col
	)
	if tr != nil {
		arrivals = tracedArrivals{VectorProcess: av, t: tr}
		if prot, err = traceProtocol(prot, tr); err != nil {
			return nil, err
		}
		n.observer = &tracedObserver{inner: col, t: tr}
		observer = n.observer
	}
	n.nw, err = mac.NewNetwork(mac.NetworkConfig{
		Seed:        seed,
		Profile:     prof,
		SuccessProb: probs,
		Conflicts:   graph,
		Arrivals:    arrivals,
		Required:    req,
		Protocol:    prot,
		Observers:   []mac.Observer{observer},
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.attach(n.nw)
	}
	return n, nil
}

// buildProtocol builds a fresh protocol instance as the rtmac constructors do.
func buildProtocol(name string, links int) (mac.Protocol, error) {
	switch name {
	case "dbdp":
		return core.NewDBDP(links)
	case "ldf":
		return ldf.NewLDF(), nil
	case "fcsma":
		return fcsma.New(fcsma.DefaultConfig())
	case "framecsma":
		return framecsma.New(framecsma.DefaultConfig())
	case "tdma":
		return tdma.New(true), nil
	case "dcf":
		return dcf.New(links, dcf.DefaultConfig())
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}

// digest writes the network's simulated outcome: served counts and debts
// per link, total deficiency, and every registry counter and histogram.
// Gauges are skipped, since some of them hold host time.
func (n *network) digest(w io.Writer) {
	led := n.nw.Ledger()
	fmt.Fprintf(w, "%s k=%d\n", n.cfg.name, n.nw.Intervals())
	for i := 0; i < led.Links(); i++ {
		fmt.Fprintf(w, "link %d served=%d debt=%s\n", i, led.Delivered(i), exact(led.Debt(i)))
	}
	fmt.Fprintf(w, "deficiency=%s\n", exact(n.col.TotalDeficiency()))
	for _, m := range n.nw.Telemetry().Snapshot() {
		if m.Kind == "gauge" {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %v %s %d\n", m.Name, m.Kind, exact(m.Value), m.Counts, exact(m.Sum), m.Total)
	}
}

// exact formats a float so that equal strings mean equal bits.
func exact(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// crcWriter counts and checksums the bytes written to it; it is the
// in-memory destination of every stream the benchmark produces.
type crcWriter struct {
	crc uint32
	n   int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, castagnoli, p)
	c.n += int64(len(p))
	return len(p), nil
}

func (c *crcWriter) String() string { return fmt.Sprintf("%08x/%d", c.crc, c.n) }

// kernelWorkload runs the eight configurations round-robin, planes off.
type kernelWorkload struct {
	seed uint64
	nets []*network
}

func (w *kernelWorkload) build() error {
	w.nets = w.nets[:0]
	for _, cfg := range kernelConfigs {
		n, err := newNetwork(cfg, w.seed, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		w.nets = append(w.nets, n)
	}
	return nil
}

func (w *kernelWorkload) setup() error {
	if err := w.build(); err != nil {
		return err
	}
	for _, n := range w.nets {
		if err := n.nw.Run(kernelWarmup); err != nil {
			return fmt.Errorf("%s: %w", n.cfg.name, err)
		}
	}
	return nil
}

func (w *kernelWorkload) prepare() error { return w.build() }

func (w *kernelWorkload) pass(c *clock) passOut {
	for r := 0; r < kernelRounds; r++ {
		for _, n := range w.nets {
			if err := n.nw.Run(kernelBlock); err != nil {
				return passOut{err: fmt.Errorf("%s: %w", n.cfg.name, err)}
			}
		}
		c.lap()
	}
	return passOut{
		digest:    kernelDigest(w.nets),
		units:     len(w.nets),
		intervals: int64(len(w.nets) * kernelRounds * kernelBlock),
	}
}

func kernelDigest(nets []*network) string {
	d := &crcWriter{}
	for _, n := range nets {
		n.digest(d)
	}
	return d.String()
}
