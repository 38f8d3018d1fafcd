package experiments

import (
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Table2 regenerates the paper's Table 2 ("Bugs and hidden behaviors"):
// for every finding it runs the detecting experiment on each hardware
// model and reports which NICs are affected, alongside the paper's
// attribution.
func Table2() (*Table, error) {
	t := &Table{
		Title:   "Table 2: bugs and hidden behaviors",
		Columns: []string{"finding", "affected (detected)", "affected (paper)"},
	}
	rows := []struct {
		finding string
		detect  func() ([]string, error)
		paper   string
	}{
		{"Non-work conserving ETS (§6.2.1)", DetectNonWorkConservingETS, "cx6"},
		{"Noisy neighbor (§6.2.2)", DetectNoisyNeighbor, "cx4"},
		{"Interoperability problem (§6.2.3)", DetectInteropProblem, "cx5+e810"},
		{"Counter inconsistency (§6.2.4)", DetectCounterBugs, "cx4, e810"},
		{"CNP rate limiting modes (§6.3)", DetectCNPRateLimiting, "all NICs tested"},
		{"Adaptive retransmission (§6.3)", DetectAdaptiveRetrans, "all CX NICs"},
	}
	for _, r := range rows {
		ms, err := r.detect()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{r.finding, joinModels(ms), r.paper})
	}
	return t, nil
}

func joinModels(ms []string) string {
	if len(ms) == 0 {
		return "none"
	}
	sort.Strings(ms)
	return strings.Join(ms, ", ")
}

// DetectNonWorkConservingETS flags models whose lone active flow in one
// of two 50%-weighted queues cannot exceed its guarantee.
func DetectNonWorkConservingETS() ([]string, error) {
	// Per model, a one-queue and a two-queue run: a single active flow
	// mapped to one of two 50%-weighted queues (the other queue idle)
	// must still get the whole link on a work-conserving scheduler —
	// same duration as the single-queue baseline.
	models := rnic.HardwareModelNames()
	var cfgs []config.Test
	for _, model := range models {
		for _, twoQueues := range []bool{false, true} {
			cfg := config.Default()
			cfg.Name = "ets-wc-" + model
			cfg.Requester.NIC.Type = model
			cfg.Responder.NIC.Type = model
			cfg.Traffic.NumConnections = 1
			cfg.Traffic.NumMsgsPerQP = 5
			cfg.Traffic.MessageSize = 1 << 20
			cfg.Traffic.TxDepth = 4
			if twoQueues {
				cfg.Requester.ETS = []config.ETSQueue{{Weight: 50}, {Weight: 50}}
				cfg.Traffic.QPTrafficClass = []int{0}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	reps, err := runAll("ets-work-conservation", cfgs)
	if err != nil {
		return nil, err
	}
	var affected []string
	for i, model := range models {
		duration := func(rep int) sim.Duration {
			c := reps[rep].Traffic.Conns[0]
			return c.LastComplete.Sub(c.FirstPost)
		}
		one := duration(2 * i)
		two := duration(2*i + 1)
		if float64(two) > 1.5*float64(one) {
			affected = append(affected, model)
		}
	}
	return affected, nil
}

// DetectNoisyNeighbor flags models where loss on 12 Read connections
// inflates innocent connections' MCTs by orders of magnitude.
func DetectNoisyNeighbor() ([]string, error) {
	var affected []string
	for _, model := range rnic.HardwareModelNames() {
		pts, err := Figure11(model, []int{12})
		if err != nil {
			return nil, err
		}
		if len(pts) == 1 && pts[0].InnocentSlow {
			affected = append(affected, model)
		}
	}
	return affected, nil
}

// DetectInteropProblem flags NIC pairings with receiver-side discards
// under concurrent connection setup.
func DetectInteropProblem() ([]string, error) {
	pts, err := Interop([]int{16}, false)
	if err != nil {
		return nil, err
	}
	if len(pts) == 1 && pts[0].RxDiscards > 0 {
		return []string{"cx5+e810"}, nil
	}
	return nil, nil
}

// DetectCounterBugs flags models whose counters disagree with the trace
// under ECN marking (CNP counters) or read loss (implied NAK counters).
func DetectCounterBugs() ([]string, error) {
	models := rnic.HardwareModelNames()
	var cfgs []config.Test
	for _, model := range models {
		// CNP counter probe.
		cfg := config.Default()
		cfg.Name = "counter-cnp-" + model
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Traffic.MessageSize = 102400
		cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: 10}}
		cfgs = append(cfgs, cfg)

		// Implied-NAK probe (read loss).
		cfg = config.Default()
		cfg.Name = "counter-nak-" + model
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Traffic.Verb = "read"
		cfg.Traffic.MessageSize = 102400
		cfg.Traffic.NumMsgsPerQP = 1
		cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
		cfgs = append(cfgs, cfg)
	}
	reps, err := runAll("counter-bugs", cfgs)
	if err != nil {
		return nil, err
	}
	var affected []string
	for i, model := range models {
		cnp, nak := reps[2*i], reps[2*i+1]
		bad := len(analyzer.CheckCounters(cnp.Trace,
			hostViewFor("responder", cnp.Config.Responder, cnp.ResponderCounters))) > 0
		bad = bad || len(analyzer.CheckCounters(nak.Trace,
			hostViewFor("requester", nak.Config.Requester, nak.RequesterCounters))) > 0
		if bad {
			affected = append(affected, model)
		}
	}
	return affected, nil
}

// DetectCNPRateLimiting reports every model (the finding is that modes
// exist, differ, and are undocumented) whose scope is verifiably
// enforced; the per-model classification lives in CNPScopes.
func DetectCNPRateLimiting() ([]string, error) {
	pts, err := CNPScopes(rnic.HardwareModelNames())
	if err != nil {
		return nil, err
	}
	var affected []string
	for _, p := range pts {
		if p.Inferred != "unlimited" {
			affected = append(affected, p.Model)
		}
	}
	return affected, nil
}

// DetectAdaptiveRetrans flags models whose adaptive-retransmission mode
// deviates from the IB-spec timeout for the first retry.
func DetectAdaptiveRetrans() ([]string, error) {
	var affected []string
	for _, model := range rnic.HardwareModelNames() {
		pts, err := AdaptiveRetrans(model, true, 3)
		if err != nil {
			return nil, err
		}
		if len(pts) > 0 && pts[0].Timeout < pts[0].SpecRTO/2 {
			affected = append(affected, model)
		}
	}
	return affected, nil
}

func hostViewFor(name string, h config.Host, ctr map[string]uint64) analyzer.HostView {
	v := analyzer.HostView{Name: name, Counters: ctr}
	for _, ip := range h.NIC.IPList {
		v.IPs = append(v.IPs, ip.String())
	}
	return v
}
