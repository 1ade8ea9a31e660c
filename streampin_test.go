package rtmac

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"rtmac/internal/monitor"
	"rtmac/internal/telemetry"
	"rtmac/internal/watch"
)

// Stream pins: the SHA-256 of the full JSONL event stream of two fixed runs.
// They guard the wire format itself — key order, float formatting, string
// escaping, header line — against any change to how events are built or
// encoded. The constants were computed once and must never be regenerated
// to make a change pass: a mismatch means the bytes on disk changed.
const (
	pinControlSHA  = "74e9dde5bc049632bc0c44c54bdd754794b55c842b0b977a94e4dd4b2cd8e026"
	pinConflictSHA = "642269895b92164721438969959ebd87472aaab7c7c077f4f0fbb303fa8c9d13"
)

// pinProbe is a checker that reports one violation per accepted swap, so the
// pinned streams carry "violation" events whose message needs HTML and
// line-separator escaping and whose payload exercises the float formats
// encoding/json switches between ('f' and 'e', negative zero, subnormals).
type pinProbe struct{}

func (pinProbe) Name() string { return "pin_probe" }

func (pinProbe) Observe(ev telemetry.Event, report monitor.Reporter) {
	if ev.Kind != telemetry.EventSwap || ev.Fields.Get("accepted") != 1 {
		return
	}
	pos := ev.Fields.Get("pos")
	report(monitor.Violation{
		Check: "pin_probe", K: ev.K, At: ev.At, Link: -1,
		Msg: fmt.Sprintf("probe <swap> & \u2028 \xff at %v", pos),
		Fields: map[string]float64{
			"tiny": 1e-7 * pos,
			"huge": 1e21 * pos,
			"neg0": math.Copysign(0, -1),
			"sub":  5e-324 * pos,
			"frac": pos / 3,
		},
	})
}

// pinStream runs cfg for 300 intervals with every deterministic event kind
// flowing into one JSONL stream: the simulator's own kinds, watch alerts
// (the run is perturbed after a shortened spike warmup), and monitor
// violations from the probe next to the full checker catalog. It returns the
// stream's SHA-256 and the kinds it carried.
func pinStream(t *testing.T, cfg Config) (string, map[string]int) {
	t.Helper()
	cfg.Perturb = &Perturbation{K: 200, Link: 0, Extra: 40}
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stream := s.StreamEvents(&buf)
	n := len(s.req)
	checkers := []monitor.Checker{
		monitor.NewPermutationValid(n),
		monitor.NewSingleAdjacentSwap(n, 1, nil),
		monitor.NewDebtSane(n, nil),
		monitor.NewAirtimeConserved(s.profileInterval, s.conflicts.graph()),
		monitor.NewCollisionFree(),
		pinProbe{},
	}
	mon, err := monitor.New(monitor.Config{
		Links: n, Interval: s.profileInterval, Checkers: checkers, Output: &s.fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.addSink(mon)
	eng, err := watch.New(watch.Config{
		Links: n, Required: s.req, SpikeWarmup: 100, Output: &s.fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.addSink(eng)
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), kinds
}

func pinLinks() []Link {
	links := make([]Link, 10)
	for i := range links {
		links[i] = Link{SuccessProb: 0.7, Arrivals: MustBernoulliArrivals(0.78), DeliveryRatio: 0.99}
	}
	return links
}

func checkPin(t *testing.T, got, want string, kinds map[string]int, need []string) {
	t.Helper()
	for _, k := range need {
		if kinds[k] == 0 {
			t.Errorf("stream carries no %q events (kinds: %v)", k, kinds)
		}
	}
	if got != want {
		t.Errorf("event stream SHA-256 = %s, want %s (kinds: %v)", got, want, kinds)
	}
}

// TestEventStreamPinControl pins the DB-DP control stream: tx, backoff,
// swap, debt, interval, prio, violation and alert events.
func TestEventStreamPinControl(t *testing.T) {
	got, kinds := pinStream(t, Config{
		Seed: 7, Profile: ControlProfile(), Links: pinLinks(), Protocol: DBDP(),
	})
	checkPin(t, got, pinControlSHA, kinds, []string{
		telemetry.EventTx, telemetry.EventBackoff, telemetry.EventSwap, telemetry.EventDebt,
		telemetry.EventInterval, telemetry.EventPriority, telemetry.EventViolation, telemetry.EventAlert,
	})
}

// TestEventStreamPinConflict pins a two-clique DB-DP stream, which adds the
// conflict-edge events.
func TestEventStreamPinConflict(t *testing.T) {
	cliques, err := CliqueConflicts(10, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	got, kinds := pinStream(t, Config{
		Seed: 7, Profile: ControlProfile(), Links: pinLinks(), Protocol: DBDP(), Conflicts: cliques,
	})
	checkPin(t, got, pinConflictSHA, kinds, []string{
		telemetry.EventTx, telemetry.EventBackoff, telemetry.EventSwap, telemetry.EventDebt,
		telemetry.EventInterval, telemetry.EventPriority, telemetry.EventViolation, telemetry.EventAlert,
		telemetry.EventConflict,
	})
}
