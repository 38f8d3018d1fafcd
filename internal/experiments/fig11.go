package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Figure11Point reports average message completion times for the
// drop-injected and innocent connection classes at one sweep point.
type Figure11Point struct {
	Model        string
	DropConns    int
	TotalConns   int
	InjectedMCT  sim.Duration
	InnocentMCT  sim.Duration
	InnocentMax  sim.Duration // worst innocent message (the wedge episode)
	RxDiscards   uint64       // requester-side rx_discards_phy
	InnocentSlow bool         // innocent flows suffered order-of-magnitude MCTs
}

// Figure11 reproduces §6.2.2's noisy-neighbor experiment: 36 Read
// connections each transferring ten 20 KB messages; on the first i
// connections the injector drops the fifth data packet. On CX4 Lx the
// concurrent Read slow paths exhaust shared contexts once i reaches ~12
// and the stalled pipeline discards innocent connections' packets,
// sending their MCTs from ~160 µs into the hundreds of milliseconds.
func Figure11(model string, dropCounts []int) ([]Figure11Point, error) {
	const totalConns = 36
	var cfgs []config.Test
	for _, i := range dropCounts {
		cfg := config.Default()
		cfg.Name = fmt.Sprintf("fig11-%s-%d", model, i)
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Traffic.Verb = "read"
		cfg.Traffic.NumConnections = totalConns
		cfg.Traffic.NumMsgsPerQP = 10
		cfg.Traffic.MessageSize = 20 * 1024
		cfg.Traffic.MTU = 1024
		cfg.Traffic.MinRetransmitTimeout = 14
		for q := 1; q <= i; q++ {
			cfg.Traffic.Events = append(cfg.Traffic.Events,
				config.Event{QPN: q, PSN: 5, Type: "drop", Iter: 1})
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := runAll("fig11", cfgs)
	if err != nil {
		return nil, err
	}
	var out []Figure11Point
	for pi, rep := range reps {
		i := dropCounts[pi]

		var injected, innocent, maxInnocent sim.Duration
		nInj, nInn := 0, 0
		for ci := range rep.Traffic.Conns {
			c := &rep.Traffic.Conns[ci]
			if c.Index < i {
				injected += c.AvgMCT()
				nInj++
			} else {
				innocent += c.AvgMCT()
				nInn++
				if m := c.MaxMCT(); m > maxInnocent {
					maxInnocent = m
				}
			}
		}
		p := Figure11Point{
			Model: model, DropConns: i, TotalConns: totalConns,
			RxDiscards: rep.RequesterCounters[rnic.CtrRxDiscardsPhy],
		}
		if nInj > 0 {
			p.InjectedMCT = injected / sim.Duration(nInj)
		}
		if nInn > 0 {
			p.InnocentMCT = innocent / sim.Duration(nInn)
			p.InnocentMax = maxInnocent
		}
		p.InnocentSlow = p.InnocentMCT > 10*sim.Millisecond
		out = append(out, p)
	}
	return out, nil
}

// Figure11Table renders the sweep.
func Figure11Table(points []Figure11Point) *Table {
	t := &Table{
		Title:   "Figure 11: avg MCT of innocent vs drop-injected flows (ms), 36 Read connections",
		Columns: []string{"nic", "drop-injected-flows", "injected-mct-ms", "innocent-mct-ms", "innocent-max-ms", "req-rx-discards"},
	}
	for _, p := range points {
		inj := "-"
		if p.DropConns > 0 {
			inj = msStr(p.InjectedMCT)
		}
		t.Rows = append(t.Rows, []string{
			p.Model, fmt.Sprintf("%d", p.DropConns), inj, msStr(p.InnocentMCT),
			msStr(p.InnocentMax), fmt.Sprintf("%d", p.RxDiscards),
		})
	}
	return t
}
