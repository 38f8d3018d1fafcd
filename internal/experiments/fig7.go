package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Figure7Variant selects one of the §5 overhead-measurement modes.
type Figure7Variant string

const (
	VariantLumina   Figure7Variant = "Lumina"     // full pipeline, tables populated, drops disabled
	VariantNoMirror Figure7Variant = "Lumina-nm"  // no mirroring
	VariantNoEvents Figure7Variant = "Lumina-ne"  // no event-injection tables
	VariantL2       Figure7Variant = "l2-forward" // plain L2 forwarding baseline
)

// Figure7Variants lists the modes in the paper's legend order.
func Figure7Variants() []Figure7Variant {
	return []Figure7Variant{VariantLumina, VariantNoMirror, VariantNoEvents, VariantL2}
}

// Figure7Point is one (message size, variant) measurement.
type Figure7Point struct {
	MsgBytes int
	Variant  Figure7Variant
	AvgMCT   sim.Duration
}

// Figure7 measures Lumina's impact on message completion time: numMsgs
// fixed-size messages sent back-to-back over one connection for each of
// the four switch modes and message sizes {1 KB, 10 KB, 100 KB} (§5,
// Figure 7). For the full-Lumina mode, match-action tables are
// populated with entries that never fire (the paper keeps the tables but
// disables the exact drop behaviour to avoid retransmissions).
func Figure7(numMsgs int) ([]Figure7Point, error) {
	// Declarative job matrix: one configuration per (size, variant)
	// sweep point, fanned out by runAll.
	var cfgs []config.Test
	var points []Figure7Point
	for _, size := range []int{1024, 10240, 102400} {
		for _, v := range Figure7Variants() {
			cfg := config.Default()
			cfg.Name = fmt.Sprintf("fig7-%s-%d", v, size)
			cfg.Traffic.NumConnections = 1
			cfg.Traffic.NumMsgsPerQP = numMsgs
			cfg.Traffic.MessageSize = size
			cfg.Traffic.MTU = 1024
			cfg.Traffic.TxDepth = 1
			switch v {
			case VariantLumina:
				// Tables populated with entries that never match: an ECN
				// intent on a packet index beyond the stream keeps every
				// lookup active without perturbing the traffic.
				cfg.Traffic.Events = []config.Event{
					{QPN: 1, PSN: cfg.Traffic.PacketsPerQP() + 1000, Type: "ecn", Iter: 9},
				}
			case VariantNoMirror:
				cfg.Switch.Mirror = false
				cfg.Traffic.Events = []config.Event{
					{QPN: 1, PSN: cfg.Traffic.PacketsPerQP() + 1000, Type: "ecn", Iter: 9},
				}
			case VariantNoEvents:
				cfg.Switch.Inject = false
			case VariantL2:
				cfg.Switch.L2Only = true
			}
			// Events with PSN beyond the stream cannot pass validation's
			// packet-count bound? They can: validation only bounds QPN.
			cfgs = append(cfgs, cfg)
			points = append(points, Figure7Point{MsgBytes: size, Variant: v})
		}
	}
	reps, err := runAll("fig7", cfgs)
	if err != nil {
		return nil, err
	}
	for i, rep := range reps {
		points[i].AvgMCT = rep.Traffic.AvgMCT()
	}
	return points, nil
}

// Figure7Table formats the points as the paper's figure data.
func Figure7Table(points []Figure7Point) *Table {
	t := &Table{
		Title:   "Figure 7: Lumina's impact on message completion time (avg MCT, µs)",
		Columns: []string{"msg-size", "variant", "avg-mct-us"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dKB", p.MsgBytes/1024), string(p.Variant), us(p.AvgMCT),
		})
	}
	return t
}
