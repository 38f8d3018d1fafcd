package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// InteropPoint is one sweep point of the §6.2.3 E810→CX5 experiment.
type InteropPoint struct {
	QPs         int
	FixMigReq   bool // injector rewrites MigReq to 1 in flight
	RxDiscards  uint64
	AvgCleanMCT sim.Duration // messages that saw no timeout
	AvgSlowMCT  sim.Duration // messages delayed past 1 ms (drop victims)
	SlowMsgs    int
}

// Interop reproduces the interoperability test: an Intel E810 requester
// (which sends BTH.MigReq = 0) sending five 100 KB messages per QP to an
// NVIDIA CX5 responder, sweeping the number of QPs. Past the CX5's APM
// fast-path capacity the responder discards arriving packets
// (rx_discards_phy), inflating the affected messages' completion times
// by orders of magnitude; rewriting MigReq to 1 in flight (the Lumina
// action added to confirm the root cause) eliminates the discards.
func Interop(qpCounts []int, fixMigReq bool) ([]InteropPoint, error) {
	var cfgs []config.Test
	for _, n := range qpCounts {
		cfg := config.Default()
		cfg.Name = fmt.Sprintf("interop-%dqp", n)
		cfg.Requester.NIC.Type = rnic.ModelE810
		cfg.Responder.NIC.Type = rnic.ModelCX5
		cfg.Traffic.Verb = "send"
		cfg.Traffic.NumConnections = n
		cfg.Traffic.NumMsgsPerQP = 5
		cfg.Traffic.MessageSize = 102400
		cfg.Traffic.MTU = 1024
		cfg.Traffic.MinRetransmitTimeout = 12 // 16.8 ms RTO
		if fixMigReq {
			cfg.Traffic.Events = []config.Event{
				{QPN: 1, PSN: 1, Type: "set-migreq", Iter: 1, Every: 1},
			}
			// The 'every' expansion covers QP 1; replicate per QP.
			cfg.Traffic.Events = nil
			for q := 1; q <= n; q++ {
				cfg.Traffic.Events = append(cfg.Traffic.Events,
					config.Event{QPN: q, PSN: 1, Type: "set-migreq", Iter: 1, Every: 1})
			}
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := runAll("interop", cfgs)
	if err != nil {
		return nil, err
	}
	var out []InteropPoint
	for pi, rep := range reps {
		n := qpCounts[pi]
		p := InteropPoint{
			QPs: n, FixMigReq: fixMigReq,
			RxDiscards: rep.ResponderCounters[rnic.CtrRxDiscardsPhy],
		}
		var clean, slow sim.Duration
		nClean, nSlow := 0, 0
		for ci := range rep.Traffic.Conns {
			for _, mct := range rep.Traffic.Conns[ci].MCTs {
				if mct > sim.Millisecond {
					slow += mct
					nSlow++
				} else {
					clean += mct
					nClean++
				}
			}
		}
		if nClean > 0 {
			p.AvgCleanMCT = clean / sim.Duration(nClean)
		}
		if nSlow > 0 {
			p.AvgSlowMCT = slow / sim.Duration(nSlow)
		}
		p.SlowMsgs = nSlow
		out = append(out, p)
	}
	return out, nil
}

// InteropTable renders the sweep.
func InteropTable(points []InteropPoint) *Table {
	t := &Table{
		Title:   "§6.2.3: E810 → CX5 interoperability (Send, 5 × 100 KB per QP)",
		Columns: []string{"qps", "migreq-fix", "resp-rx-discards", "clean-mct-us", "slow-mct-us", "slow-msgs"},
	}
	for _, p := range points {
		slow := "-"
		if p.SlowMsgs > 0 {
			slow = us(p.AvgSlowMCT)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.QPs),
			fmt.Sprintf("%v", p.FixMigReq),
			fmt.Sprintf("%d", p.RxDiscards),
			us(p.AvgCleanMCT), slow,
			fmt.Sprintf("%d", p.SlowMsgs),
		})
	}
	return t
}
