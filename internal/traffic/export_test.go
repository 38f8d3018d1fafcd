package traffic

import (
	"sort"

	"github.com/lumina-sim/lumina/internal/sim"
)

// PercentileMCT returns the p-th percentile message completion time
// (p in [0,100], nearest-rank).
func (c *ConnStats) PercentileMCT(p float64) sim.Duration {
	if len(c.MCTs) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), c.MCTs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Results returns the report (nil until finished).
func (p *Pair) Results() *Results {
	if !p.finished {
		return nil
	}
	return p.results
}
