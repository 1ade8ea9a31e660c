package mac

import (
	"rtmac/internal/perm"
	"rtmac/internal/sim"
	"rtmac/internal/telemetry"
)

// SwapHook observes one DP priority-swap decision: pos is the priority
// position C(k), down/up the candidate link ids, accepted whether the
// exchange was committed. Protocols expose SetSwapHook(SwapHook) to opt in;
// the network wires it automatically.
type SwapHook func(k int64, at sim.Time, pos, down, up int, accepted bool)

// swapHookCarrier is implemented by protocols with observable swap dynamics
// (the DP family).
type swapHookCarrier interface {
	SetSwapHook(SwapHook)
}

// priorityCarrier is implemented by protocols maintaining an explicit
// priority permutation σ (the DP family); the network streams per-interval
// σ snapshots from it so the runtime monitor can audit bijectivity and swap
// evolution from the event stream alone.
type priorityCarrier interface {
	Priorities() perm.Permutation
}

// priorityCopier lets the network snapshot σ into a reusable scratch slice
// instead of paying Priorities' per-interval clone on the event hot path.
type priorityCopier interface {
	CopyPriorities(dst perm.Permutation) perm.Permutation
}

// debtHistogramBounds cover positive debts from "caught up" through the
// pathological backlog regime; debts beyond 64 packets land in +Inf.
var debtHistogramBounds = []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}

// backoffHistogramBounds cover Eq. 6 counters (≤ N+3) and the exponential
// windows of the CSMA baselines (up to 1024 slots).
var backoffHistogramBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// instrumentation bundles the network-level metrics and the event stream.
// The registry-backed parts are always on (counter updates are cheap and
// give Report and tests one source of truth); event emission only happens
// when a sink is attached.
type instrumentation struct {
	sink telemetry.Sink

	intervals    *telemetry.Counter
	swapAccepted *telemetry.Counter
	swapRejected *telemetry.Counter

	engineEvents  *telemetry.Gauge
	queueDepthMax *telemetry.Gauge
	utilization   *telemetry.Gauge
	dataFraction  *telemetry.Gauge
	emptyFraction *telemetry.Gauge
	collFraction  *telemetry.Gauge
	intervalsPerS *telemetry.Gauge

	debtHist    *telemetry.Histogram
	backoffHist *telemetry.Histogram

	// Scratch payload values, one array per emission site in its kind's
	// static schema order, reused across events: steady-state emission only
	// overwrites values and allocates nothing. Safe because the Sink contract
	// forbids retaining the values beyond the Emit call.
	txVals       [3]float64
	backoffVals  [1]float64
	debtVals     [3]float64
	swapVals     [4]float64
	intervalVals [3]float64
	conflictVals [1]float64
	// prioKeys/prioSlot are the interned σ-snapshot schema for N links and
	// each link's value position in it; prioVals is its value scratch (built
	// on the first snapshot).
	prioKeys *telemetry.Keys
	prioSlot []int
	prioVals []float64
	// prioScratch is the reusable σ snapshot filled by priorityCopier
	// protocols.
	prioScratch perm.Permutation
}

func newInstrumentation(reg *telemetry.Registry) *instrumentation {
	return &instrumentation{
		intervals:     reg.Counter("rtmac_intervals_total", "completed simulation intervals"),
		swapAccepted:  reg.Counter("rtmac_swap_accepted_total", "DP priority swaps committed"),
		swapRejected:  reg.Counter("rtmac_swap_rejected_total", "DP swap candidacies that did not commit"),
		engineEvents:  reg.Gauge("rtmac_engine_events_fired", "discrete events executed by the engine"),
		queueDepthMax: reg.Gauge("rtmac_engine_queue_depth_max", "high-water mark of the engine event queue"),
		utilization:   reg.Gauge("rtmac_channel_utilization", "fraction of simulated time the channel was busy"),
		dataFraction:  reg.Gauge("rtmac_airtime_data_fraction", "fraction of simulated time spent on clean data exchanges"),
		emptyFraction: reg.Gauge("rtmac_airtime_empty_fraction", "fraction of simulated time spent on clean empty frames"),
		collFraction:  reg.Gauge("rtmac_airtime_collided_fraction", "fraction of simulated time lost to collisions"),
		intervalsPerS: reg.Gauge("rtmac_wallclock_intervals_per_second", "simulated intervals per wall-clock second over the last Run call"),
		debtHist:      reg.Histogram("rtmac_debt_positive", "positive delivery debt per link per interval, packets", debtHistogramBounds),
		backoffHist:   reg.Histogram("rtmac_backoff_slots", "initial backoff counters handed to the contention coordinator", backoffHistogramBounds),
	}
}

// observeDebts feeds the ledger's update hook: histogram always, one
// network-wide debt event per interval when a sink is attached.
func (in *instrumentation) observeDebts(k int64, at sim.Time, debts []float64) {
	maxDebt, sum := 0.0, 0.0
	positive := 0
	for _, d := range debts {
		pos := d
		if pos < 0 {
			pos = 0
		} else if pos > 0 {
			positive++
		}
		in.debtHist.Observe(pos)
		sum += d
		if d > maxDebt {
			maxDebt = d
		}
	}
	if in.sink != nil {
		in.debtVals[telemetry.DebtMax] = maxDebt
		in.debtVals[telemetry.DebtMean] = sum / float64(len(debts))
		in.debtVals[telemetry.DebtPositive] = float64(positive)
		in.sink.Emit(telemetry.Event{
			K: k, At: at, Link: -1, Kind: telemetry.EventDebt,
			Fields: telemetry.MakeFields(telemetry.DebtKeys, in.debtVals[:]),
		})
	}
}

// observeSwap feeds the protocol's swap hook.
func (in *instrumentation) observeSwap(k int64, at sim.Time, pos, down, up int, accepted bool) {
	acc := 0.0
	if accepted {
		in.swapAccepted.Inc()
		acc = 1
	} else {
		in.swapRejected.Inc()
	}
	if in.sink != nil {
		in.swapVals[telemetry.SwapPos] = float64(pos)
		in.swapVals[telemetry.SwapDown] = float64(down)
		in.swapVals[telemetry.SwapUp] = float64(up)
		in.swapVals[telemetry.SwapAccepted] = acc
		in.sink.Emit(telemetry.Event{
			K: k, At: at, Link: -1, Kind: telemetry.EventSwap,
			Fields: telemetry.MakeFields(telemetry.SwapKeys, in.swapVals[:]),
		})
	}
}

// endInterval updates the per-interval gauges and emits the interval event.
func (in *instrumentation) endInterval(nw *Network, k int64, end sim.Time) {
	in.intervals.Inc()
	eng := nw.eng
	in.engineEvents.Set(float64(eng.EventsFired()))
	in.queueDepthMax.Set(float64(eng.MaxPending()))
	if now := eng.Now(); now > 0 {
		at := nw.med.Airtime()
		span := float64(now)
		in.utilization.Set(float64(at.Busy) / span)
		in.dataFraction.Set(float64(at.Data) / span)
		in.emptyFraction.Set(float64(at.Empty) / span)
		in.collFraction.Set(float64(at.Collided) / span)
	}
	if in.sink != nil {
		arrivals, served, pending := 0, 0, 0
		for n := 0; n < nw.ctx.Links(); n++ {
			arrivals += nw.ctx.Arrivals(n)
			served += nw.ctx.Served(n)
			pending += nw.ctx.Pending(n)
		}
		in.intervalVals[telemetry.IntervalArrivals] = float64(arrivals)
		in.intervalVals[telemetry.IntervalServed] = float64(served)
		in.intervalVals[telemetry.IntervalExpired] = float64(pending)
		in.sink.Emit(telemetry.Event{
			K: k, At: end, Link: -1, Kind: telemetry.EventInterval,
			Fields: telemetry.MakeFields(telemetry.IntervalKeys, in.intervalVals[:]),
		})
		if nw.prio != nil {
			prio := in.prioScratch
			if pc, ok := nw.prio.(priorityCopier); ok {
				prio = pc.CopyPriorities(prio)
				in.prioScratch = prio
			} else {
				prio = nw.prio.Priorities()
			}
			in.emitPriorities(prio, k, end)
		}
	}
}

// emitPriorities streams the post-swap σ(k) snapshot: field l<n> holds link
// n's priority index. Emitted after the interval event, so a stream reader
// sees the interval's swaps strictly before the permutation they produced.
func (in *instrumentation) emitPriorities(prio perm.Permutation, k int64, at sim.Time) {
	if in.prioKeys == nil {
		in.prioKeys, in.prioSlot = telemetry.PrioKeys(prio.Len())
		in.prioVals = make([]float64, prio.Len())
	}
	for link, pr := range prio {
		in.prioVals[in.prioSlot[link]] = float64(pr)
	}
	in.sink.Emit(telemetry.Event{
		K: k, At: at, Link: -1, Kind: telemetry.EventPriority,
		Fields: telemetry.MakeFields(in.prioKeys, in.prioVals),
	})
}
