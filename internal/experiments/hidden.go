package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// CNPIntervalPoint reports a NIC's effective CNP spacing when every
// data packet is CE-marked and configuration asks for zero coalescing.
type CNPIntervalPoint struct {
	Model       string
	MinInterval sim.Duration
	CNPs        int
	Marked      int
}

// CNPIntervals reproduces §6.3's "CNP generation interval" probe: mark
// every packet, set min-time-between-cnps to 0 where configurable, and
// measure the spacing between consecutive CNPs in the trace. E810's
// undocumented ~50 µs floor shows up here; NVIDIA NICs honor the
// configured value.
func CNPIntervals(models []string) ([]CNPIntervalPoint, error) {
	var cfgs []config.Test
	for _, model := range models {
		cfg := config.Default()
		cfg.Name = "cnp-interval-" + model
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Responder.RoCE.MinTimeBetweenCNPs = 0
		// Keep the sender at line rate so packet (and hence potential
		// CNP) spacing reflects only the NP limiter.
		cfg.Requester.RoCE.DCQCNRPEnable = false
		// Long enough (≈330 µs of line-rate traffic) to span several of
		// E810's hidden ~50 µs CNP windows.
		cfg.Traffic.NumConnections = 1
		cfg.Traffic.NumMsgsPerQP = 40
		cfg.Traffic.MessageSize = 102400
		cfg.Traffic.Events = []config.Event{
			{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: 1},
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := runAll("cnp-interval", cfgs)
	if err != nil {
		return nil, err
	}
	var out []CNPIntervalPoint
	for i, rep := range reps {
		cr := analyzer.AnalyzeCNP(rep.Trace)
		respIP := cfgs[i].Responder.NIC.IPList[0]
		out = append(out, CNPIntervalPoint{
			Model:       models[i],
			MinInterval: cr.MinIntervalPerPort,
			CNPs:        cr.TotalCNPs(),
			Marked:      cr.ECNMarked[respIP],
		})
	}
	return out, nil
}

// CNPIntervalTable renders the probe.
func CNPIntervalTable(points []CNPIntervalPoint) *Table {
	t := &Table{
		Title:   "§6.3: CNP generation interval with min-time-between-cnps=0, every packet CE-marked",
		Columns: []string{"nic", "ce-marked", "cnps", "min-cnp-interval-us"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Model, fmt.Sprintf("%d", p.Marked), fmt.Sprintf("%d", p.CNPs), us(p.MinInterval),
		})
	}
	return t
}

// CNPScopePoint reports the inferred rate-limiter scope for one model.
type CNPScopePoint struct {
	Model    string
	Inferred string
	Expected string
}

// cnpScopeExpected is the paper's reported mode matrix (§6.3).
func cnpScopeExpected() map[string]string {
	return map[string]string{
		rnic.ModelCX4:  "per-dst-ip",
		rnic.ModelCX5:  "per-port",
		rnic.ModelCX6:  "per-port",
		rnic.ModelE810: "per-qp",
		rnic.ModelSpec: "per-qp",
	}
}

// CNPScopes reproduces §6.3's rate-limiter mode discovery: ECN-mark
// everything across four QPs spread over two destination IPs (multi-GID
// requester), then classify the scope at which the minimum CNP spacing
// is enforced. Expected per the paper: CX4 Lx per destination IP, E810
// per QP, CX5/CX6 Dx per NIC port.
func CNPScopes(models []string) ([]CNPScopePoint, error) {
	var cfgs []config.Test
	var limits []sim.Duration
	for _, model := range models {
		prof, _ := rnic.ProfileByName(model)
		// Pick the discrimination interval: ask for 20 µs where the knob
		// is honored; hardware floors override (E810's hidden 50 µs).
		cfg := config.Default()
		cfg.Name = "cnp-scope-" + model
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Responder.RoCE.MinTimeBetweenCNPs = 20
		if !prof.CNPIntervalSettable {
			cfg.Responder.RoCE.MinTimeBetweenCNPs = -1
		}
		limit := prof.CNPInterval(cfg.Responder.RoCE.MinCNPInterval())
		// Two requester GIDs so CNPs target two destination IPs.
		cfg.Requester.NIC.IPList = append(cfg.Requester.NIC.IPList,
			cfg.Requester.NIC.IPList[0].Next())
		cfg.Requester.RoCE.DCQCNRPEnable = false
		cfg.Traffic.MultiGID = true
		cfg.Traffic.NumConnections = 4 // 2 QPs per destination IP
		cfg.Traffic.NumMsgsPerQP = 6
		cfg.Traffic.MessageSize = 102400
		for q := 1; q <= 4; q++ {
			cfg.Traffic.Events = append(cfg.Traffic.Events,
				config.Event{QPN: q, PSN: 1, Type: "ecn", Iter: 1, Every: 1})
		}
		cfgs = append(cfgs, cfg)
		limits = append(limits, limit)
	}
	reps, err := runAll("cnp-scope", cfgs)
	if err != nil {
		return nil, err
	}
	var out []CNPScopePoint
	for i, rep := range reps {
		cr := analyzer.AnalyzeCNP(rep.Trace)
		out = append(out, CNPScopePoint{
			Model:    models[i],
			Inferred: cr.InferScope(limits[i]),
			Expected: cnpScopeExpected()[models[i]],
		})
	}
	return out, nil
}

// CNPScopeTable renders the classification.
func CNPScopeTable(points []CNPScopePoint) *Table {
	t := &Table{
		Title:   "§6.3: CNP rate-limiting mode per NIC",
		Columns: []string{"nic", "inferred-scope", "paper-reported"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{p.Model, p.Inferred, p.Expected})
	}
	return t
}

// AdaptiveRetransPoint reports one retry's observed timeout.
type AdaptiveRetransPoint struct {
	Model    string
	Adaptive bool
	Retry    int
	Timeout  sim.Duration
	SpecRTO  sim.Duration
}

// AdaptiveRetrans reproduces §6.3's adaptive-retransmission probe: with
// timeout=14 (spec RTO 67.1 ms) and retry_cnt=7, keep dropping the last
// packet of the first message and measure the spacing of successive
// retransmissions in the trace. With adaptive retransmission on, NVIDIA
// NICs follow an undocumented schedule (CX6 Dx: 5.6, 4.1, 8.4, 16.7,
// 25.1, 67.1, 134.2 ms) and retry 8–13 times; with it off, behaviour
// follows the IB specification exactly.
func AdaptiveRetrans(model string, adaptive bool, drops int) ([]AdaptiveRetransPoint, error) {
	cfg := config.Default()
	cfg.Name = fmt.Sprintf("adaptive-%s-%v", model, adaptive)
	cfg.Requester.NIC.Type = model
	cfg.Responder.NIC.Type = model
	cfg.Requester.RoCE.AdaptiveRetrans = adaptive
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 1
	cfg.Traffic.MessageSize = 10240
	cfg.Traffic.MTU = 1024
	cfg.Traffic.MinRetransmitTimeout = 14
	cfg.Traffic.MaxRetransmitRetry = 7
	lastPkt := cfg.Traffic.PacketsPerMessage()
	for it := 1; it <= drops; it++ {
		cfg.Traffic.Events = append(cfg.Traffic.Events,
			config.Event{QPN: 1, PSN: lastPkt, Type: "drop", Iter: it})
	}
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}

	// Identify the dropped PSN, then collect every transmission of it:
	// the gaps are the per-retry timeouts.
	var droppedPSN uint32
	found := false
	for i := range rep.Trace.Entries {
		e := &rep.Trace.Entries[i]
		if e.Meta().Event == packet.EventDrop {
			droppedPSN = e.PSN()
			found = true
			break
		}
	}
	var times []sim.Time
	if found {
		for i := range rep.Trace.Entries {
			e := &rep.Trace.Entries[i]
			if e.Opcode().IsData() && e.PSN() == droppedPSN {
				times = append(times, e.Time())
			}
		}
	}
	specRTO := sim.Duration(4096) << 14
	var out []AdaptiveRetransPoint
	for i := 1; i < len(times); i++ {
		out = append(out, AdaptiveRetransPoint{
			Model: model, Adaptive: adaptive, Retry: i,
			Timeout: times[i].Sub(times[i-1]), SpecRTO: specRTO,
		})
	}
	return out, nil
}

// AdaptiveRetransTable renders the measured timeouts.
func AdaptiveRetransTable(points []AdaptiveRetransPoint) *Table {
	t := &Table{
		Title:   "§6.3: retransmission timeouts, timeout=14 (spec RTO 67.1 ms), retry_cnt=7",
		Columns: []string{"nic", "adaptive", "retry", "timeout-ms", "spec-rto-ms"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Model, fmt.Sprintf("%v", p.Adaptive), fmt.Sprintf("%d", p.Retry),
			msStr(p.Timeout), msStr(p.SpecRTO),
		})
	}
	return t
}
