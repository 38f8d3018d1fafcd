package fuzz

import (
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// NoisyNeighborTarget searches for configurations where packet loss on
// some connections degrades innocent connections sharing the NIC — the
// hunt that uncovered §6.2.2 on CX4 Lx. Genome: [dropConns, innocent,
// msgKB]. The score rewards innocent-connection slowdown and
// requester-side discards.
func NoisyNeighborTarget(model string) Target {
	return Target{
		Name: "noisy-neighbor",
		Params: []Param{
			{Name: "drop-conns", Min: 0, Max: 16},
			{Name: "innocent-conns", Min: 8, Max: 24},
			{Name: "msg-kb", Min: 10, Max: 40},
		},
		Build: func(g Genome) config.Test {
			c := config.Default()
			c.Requester.NIC.Type = model
			c.Responder.NIC.Type = model
			c.Traffic.Verb = "read"
			c.Traffic.NumConnections = g[0] + g[1]
			c.Traffic.NumMsgsPerQP = 5
			c.Traffic.MessageSize = g[2] * 1024
			c.Traffic.MinRetransmitTimeout = 14
			for i := 1; i <= g[0]; i++ {
				c.Traffic.Events = append(c.Traffic.Events,
					config.Event{QPN: i, PSN: 5, Type: "drop", Iter: 1})
			}
			return c
		},
		Score:     noisyNeighborScore,
		Threshold: 50, // innocent flows ≥ ~50× slower than clean baseline
	}
}

// noisyNeighborScore combines innocent-flow MCT inflation with
// requester-side discards — the multi-objective of Algorithm 1
// instantiated for this hunt.
func noisyNeighborScore(g Genome, rep *orchestrator.Report) float64 {
	dropConns := g[0]
	var innocentMCT, cleanBaseline sim.Duration
	nInnocent := 0
	for i := range rep.Traffic.Conns {
		c := &rep.Traffic.Conns[i]
		if c.Index >= dropConns {
			innocentMCT += c.AvgMCT()
			nInnocent++
		}
	}
	if nInnocent == 0 {
		return 0
	}
	innocentMCT /= sim.Duration(nInnocent)
	// Baseline: a clean same-size transfer takes roughly the wire time;
	// use 200µs as the no-interference scale (Figure 11's ~160µs).
	cleanBaseline = 200 * sim.Microsecond
	score := float64(innocentMCT) / float64(cleanBaseline)
	score += float64(rep.RequesterCounters[rnic.CtrRxDiscardsPhy]) * 0.01
	if rep.TimedOut {
		score += 100
	}
	return score
}

// CounterBugTarget searches for configurations where hardware counters
// disagree with the wire — the §6.2.4 class. Genome: [verb, dropPSN,
// ecnEvery]. Score: number of trace-vs-counter inconsistencies on every
// side the trace can judge, those the counter-consistency verdict names.
func CounterBugTarget(model string) Target {
	return Target{
		Name: "counter-bugs",
		Params: []Param{
			{Name: "verb", Min: 0, Max: 2}, // send/write/read
			{Name: "drop-psn", Min: 0, Max: 60},
			{Name: "ecn-every", Min: 0, Max: 20},
		},
		Build: func(g Genome) config.Test {
			c := config.Default()
			c.Requester.NIC.Type = model
			c.Responder.NIC.Type = model
			c.Traffic.Verb = []string{"send", "write", "read"}[g[0]]
			c.Traffic.NumConnections = 1
			c.Traffic.NumMsgsPerQP = 2
			c.Traffic.MessageSize = 65536
			if g[1] > 0 {
				c.Traffic.Events = append(c.Traffic.Events,
					config.Event{QPN: 1, PSN: g[1], Type: "drop", Iter: 1})
			}
			if g[2] > 0 {
				c.Traffic.Events = append(c.Traffic.Events,
					config.Event{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: g[2]})
			}
			return c
		},
		Score: func(g Genome, rep *orchestrator.Report) float64 {
			return float64(len(rep.Analysis.Counters))
		},
		Threshold: 1,
	}
}
