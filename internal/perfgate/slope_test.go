package perfgate

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// connAllocBudget bounds the heap objects one more connection adds to a
// pair run (Build + Execute, every packet captured): the plain reading
// of 3.53 plus 10 % (-race reads 3.45). Three of them are the
// connection's completion callback and its Statuses map, and the rest
// the capture pages and queue growth its packets bring. It read 17.2
// while each connection allocated its own QPs, memory region, work
// requests, transmit ring, switch records and telemetry track names.
const connAllocBudget = 3.9

// TestConnectionCountSlope runs the default pair scenario at 4 and at 64
// connections with the same messages per QP and budgets the allocations
// each added connection costs. A per-connection record that leaves its
// slab shows here as a slope of one or more per connection, long before
// it moves a whole-run budget.
func TestConnectionCountSlope(t *testing.T) {
	allocs := func(conns int) float64 {
		cfg := config.Default()
		cfg.Traffic.NumConnections = conns
		cfg.Traffic.NumMsgsPerQP = 2
		return testing.AllocsPerRun(3, func() {
			tb, err := orchestrator.Build(cfg, orchestrator.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Execute(); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(4), allocs(64)
	slope := (hi - lo) / 60
	t.Logf("%.0f allocs at 4 connections, %.0f at 64: %.2f per added connection (budget %.1f)", lo, hi, slope, connAllocBudget)
	if slope > connAllocBudget {
		t.Errorf("each added connection costs %.2f allocations, budget %.1f", slope, connAllocBudget)
	}
}
