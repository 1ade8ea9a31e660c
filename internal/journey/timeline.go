package journey

// DebtPoint is one interval's entry in a link's debt timeline: the signed
// debt d_n(k) after the interval's Eq. 1 update, the interval's transmission
// outcomes on the link (wins/losses/collisions), and whether a committed
// priority swap moved the link up or down at this interval's end.
type DebtPoint struct {
	K         int64   `json:"k"`
	Debt      float64 `json:"debt"`
	Delivered int     `json:"delivered"`
	Lost      int     `json:"lost"`
	Collided  int     `json:"collided"`
	SwapUp    bool    `json:"swap_up,omitempty"`
	SwapDown  bool    `json:"swap_down,omitempty"`
}

// PositiveDebt returns d⁺ = max{0, Debt}, the quantity the paper's policies
// act on and the one the dashboard sparklines plot.
func (p DebtPoint) PositiveDebt() float64 {
	if p.Debt > 0 {
		return p.Debt
	}
	return 0
}

// timelineLen bounds each link's debt timeline: the most recent 512
// intervals survive, so FCSMA's debt saturation and DB-DP's recovery stay
// visible without unbounded memory.
const timelineLen = 512
