package protocol

import (
	"testing"

	"rtmac/internal/mac/fcsma"
	"rtmac/internal/medium"
)

// TestMonitorConfigFollowsGuarantees pins the one place a spec becomes a
// monitor configuration: collision-freedom is armed for the policies that
// guarantee it, dropped for DB-DP on a partial conflict graph, and the swap
// allowance follows the DP configuration.
func TestMonitorConfigFollowsGuarantees(t *testing.T) {
	complete := medium.CompleteGraph(4)
	partial, err := medium.CliqueGraph(4, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := PaperDBDP()
	pairs.Pairs = 2
	cases := []struct {
		spec              Spec
		onFull, onPartial bool
		swapPairs         int
	}{
		{DBDP(PaperDBDP()), true, false, 1},
		{DBDP(pairs), true, false, 2},
		{LDF(), true, true, 0},
		{TDMA(), true, true, 0},
		{FrameCSMA(), true, true, 0},
		{FCSMA(fcsma.DefaultConfig()), false, false, 0},
		{DCF(), false, false, 0},
	}
	for _, tc := range cases {
		for _, g := range []struct {
			graph *medium.Graph
			want  bool
		}{{nil, tc.onFull}, {complete, tc.onFull}, {partial, tc.onPartial}} {
			cfg := tc.spec.Monitor(4, 1000, g.graph)
			if cfg.CollisionFree != g.want {
				t.Errorf("%s on %v: CollisionFree = %v, want %v", tc.spec.Label, g.graph, cfg.CollisionFree, g.want)
			}
			if cfg.SwapPairs != tc.swapPairs || cfg.Links != 4 || cfg.Interval != 1000 || cfg.Conflicts != g.graph {
				t.Errorf("%s: monitor config %+v", tc.spec.Label, cfg)
			}
		}
		if _, err := tc.spec.Build(4); err != nil {
			t.Errorf("%s: %v", tc.spec.Label, err)
		}
	}
}
