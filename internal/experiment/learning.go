package experiment

import (
	"rtmac/internal/protocol"
)

// ExtraLearning compares DB-DP with the known-p_n oracle against DB-DP that
// LEARNS reliability online from its own ACKs (the paper's suggested
// alternative to assuming p_n). Run on the asymmetric two-group network,
// where wrong reliability estimates would misweight the two groups.
func ExtraLearning() Figure {
	learned := protocol.PaperDBDP()
	learned.Learned = true
	spec := protocol.DBDP(learned)
	spec.Label = "DB-DP (learned p)"
	specs := paperSpecs()
	return &sweepFigure{
		id:               "extra-learning",
		title:            "DB-DP with known p_n vs online-learned reliability (asymmetric network, 90% ratio)",
		xlabel:           "alpha*",
		xs:               sweepRange(0.50, 0.75, 0.05),
		specs:            []protocol.Spec{specs[0], spec, specs[1]},
		replicationSeeds: true,
		build: func(x float64, opts RunOptions) (scenario, error) {
			return asymmetricScenario(x, videoRho, opts.scaled(videoIntervals))
		},
	}
}
