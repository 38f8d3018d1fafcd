package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// RetransPoint is one (NIC, verb, drop position) measurement for
// Figures 8 and 9.
type RetransPoint struct {
	Model   string
	Verb    string // "write" or "read"
	DropPos int    // relative sequence number of the dropped packet
	Gen     sim.Duration
	React   sim.Duration
}

// Figures8And9 measures NACK generation latency (Figure 8) and NACK
// reaction latency (Figure 9) versus the sequence number of the dropped
// packet, for Write and Read traffic on each NIC model (§6.1): a single
// connection transfers one 100 KB message per drop position (MTU 1024 →
// 100 packets), the injector drops the packet at the requested relative
// PSN, and the retransmission analyzer extracts the Figure 5 breakdown
// from the reconstructed trace.
func Figures8And9(models []string, positions []int) ([]RetransPoint, error) {
	var cfgs []config.Test
	var points []RetransPoint
	for _, model := range models {
		for _, verb := range []string{"write", "read"} {
			for _, pos := range positions {
				cfg := config.Default()
				cfg.Name = fmt.Sprintf("fig89-%s-%s-%d", model, verb, pos)
				cfg.Requester.NIC.Type = model
				cfg.Responder.NIC.Type = model
				cfg.Traffic.Verb = verb
				cfg.Traffic.NumConnections = 1
				cfg.Traffic.NumMsgsPerQP = 1
				cfg.Traffic.MessageSize = 102400 // 100 packets at MTU 1024
				cfg.Traffic.MTU = 1024
				// The probe measures the fast-retransmission path, so the
				// RTO must sit above the slowest NACK path under test
				// (E810's ~83 ms read detour): timeout=15 → 134 ms.
				cfg.Traffic.MinRetransmitTimeout = 15
				cfg.Traffic.Events = []config.Event{
					{QPN: 1, PSN: pos, Type: "drop", Iter: 1},
				}
				cfgs = append(cfgs, cfg)
				points = append(points, RetransPoint{Model: model, Verb: verb, DropPos: pos})
			}
		}
	}
	reps, err := runAll("fig89", cfgs)
	if err != nil {
		return nil, err
	}
	for i, rep := range reps {
		if evs := analyzer.AnalyzeRetransmissions(rep.Trace); len(evs) == 1 {
			points[i].Gen = evs[0].GenLatency()
			points[i].React = evs[0].ReactLatency()
		}
	}
	return points, nil
}

// Figure8Table renders the NACK-generation series.
func Figure8Table(points []RetransPoint) *Table {
	t := &Table{
		Title:   "Figure 8: NACK generation latency vs seqnum of the dropped packet (µs)",
		Columns: []string{"verb", "nic", "drop-seqnum", "nack-gen-us"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Verb, p.Model, fmt.Sprintf("%d", p.DropPos), us(p.Gen),
		})
	}
	return t
}

// Figure9Table renders the NACK-reaction series.
func Figure9Table(points []RetransPoint) *Table {
	t := &Table{
		Title:   "Figure 9: NACK reaction latency vs seqnum of the dropped packet (µs)",
		Columns: []string{"verb", "nic", "drop-seqnum", "nack-react-us"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Verb, p.Model, fmt.Sprintf("%d", p.DropPos), us(p.React),
		})
	}
	return t
}
