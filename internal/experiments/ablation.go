package experiments

import (
	"fmt"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// Ablations quantify the design choices DESIGN.md calls out by flipping
// single profile behaviours and re-running the detecting experiment.
// They answer "how much of the observed effect does this mechanism
// carry?" — e.g. how much throughput the CX6 ETS clamp costs, or how
// much capture reliability the RSS port rewrite buys.

// AblationPoint is one (variant, metric) measurement.
type AblationPoint struct {
	Ablation string
	Variant  string
	Metric   string
	Value    float64
}

// AblationTable renders ablation results.
func AblationTable(points []AblationPoint) *Table {
	t := &Table{
		Title:   "Ablations: single-mechanism flips on the detecting experiments",
		Columns: []string{"ablation", "variant", "metric", "value"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{p.Ablation, p.Variant, p.Metric, fmt.Sprintf("%.2f", p.Value)})
	}
	return t
}

// customPair runs one two-NIC traffic scenario with explicitly supplied
// profiles — the hook the ablations use to flip single profile fields
// without registering new models. It returns the finished pair.
func customPair(profReq, profResp rnic.Profile, mutate func(*config.Traffic), ets rnic.ETSConfig) (*traffic.Pair, error) {
	s := sim.New(1)
	req := rnic.New(s, profReq, rnic.Config{
		Name: "req", MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.1")},
		Set: rnic.DefaultSettings(), ETS: ets,
	})
	resp := rnic.New(s, profResp, rnic.Config{
		Name: "resp", MAC: packet.MAC{2, 0, 0, 0, 0, 2},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.2")},
		Set: rnic.DefaultSettings(),
	})
	pa, pb := sim.Connect(s, "a", "b", min(profReq.LinkGbps, profResp.LinkGbps), 100)
	req.AttachPort(pa)
	resp.AttachPort(pb)
	tr := config.Traffic{
		NumConnections: 1, Verb: "write", NumMsgsPerQP: 5,
		MTU: 1024, MessageSize: 1 << 20, TxDepth: 4,
		MinRetransmitTimeout: 14, MaxRetransmitRetry: 7,
	}
	if mutate != nil {
		mutate(&tr)
	}
	pair, err := traffic.NewPair(s, req, resp, tr)
	if err != nil {
		return nil, err
	}
	pair.Start(nil)
	s.Run()
	return pair, nil
}

// AblateETSClamp measures the throughput a lone flow loses to the CX6 Dx
// guarantee clamp by flipping ETSNonWorkConserving off.
func AblateETSClamp() ([]AblationPoint, error) {
	ets := rnic.ETSConfig{Queues: []rnic.ETSQueueConfig{{Weight: 50}, {Weight: 50}}}
	measure := func(clamped bool) (float64, error) {
		prof := rnic.Profiles()[rnic.ModelCX6]
		prof.ETSNonWorkConserving = clamped
		pair, err := customPair(prof, rnic.Profiles()[rnic.ModelCX6], nil, ets)
		if err != nil {
			return 0, err
		}
		return pair.Results().Conns[0].GoodputGbps(), nil
	}
	clamped, err := measure(true)
	if err != nil {
		return nil, err
	}
	unclamped, err := measure(false)
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{"ets-clamp", "cx6 (clamped)", "lone-flow-gbps", clamped},
		{"ets-clamp", "cx6 w/o clamp", "lone-flow-gbps", unclamped},
	}, nil
}

// AblateWedge measures the noisy-neighbor amplification carried by the
// slow-path wedge, by giving CX4 unlimited slow-path contexts.
func AblateWedge() ([]AblationPoint, error) {
	measure := func(contexts int) (float64, error) {
		cfg := config.Default()
		cfg.Requester.NIC.Type = rnic.ModelCX4
		cfg.Responder.NIC.Type = rnic.ModelCX4
		cfg.Traffic.Verb = "read"
		cfg.Traffic.NumConnections = 36
		cfg.Traffic.NumMsgsPerQP = 10
		cfg.Traffic.MessageSize = 20 * 1024
		for q := 1; q <= 12; q++ {
			cfg.Traffic.Events = append(cfg.Traffic.Events,
				config.Event{QPN: q, PSN: 5, Type: "drop", Iter: 1})
		}
		tb, err := orchestrator.Build(cfg, orchestrator.DefaultOptions())
		if err != nil {
			return 0, err
		}
		tb.Flows[0].Req.Prof.SlowPathContexts = contexts
		rep, err := tb.Execute()
		if err != nil {
			return 0, err
		}
		var innocent sim.Duration
		n := 0
		for i := range rep.Traffic.Conns {
			c := &rep.Traffic.Conns[i]
			if c.Index >= 12 {
				innocent += c.AvgMCT()
				n++
			}
		}
		return float64(innocent/sim.Duration(n)) / 1e6, nil // ms
	}
	wedged, err := measure(10)
	if err != nil {
		return nil, err
	}
	unlimited, err := measure(0)
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{"slow-path-wedge", "cx4 (10 contexts)", "innocent-mct-ms", wedged},
		{"slow-path-wedge", "cx4 unlimited contexts", "innocent-mct-ms", unlimited},
	}, nil
}

// AblateAPM measures the interop damage carried by the strict-APM slow
// path, by disabling it on the CX5 responder.
func AblateAPM() ([]AblationPoint, error) {
	measure := func(strict bool) (float64, error) {
		cfg := config.Default()
		cfg.Requester.NIC.Type = rnic.ModelE810
		cfg.Responder.NIC.Type = rnic.ModelCX5
		cfg.Traffic.Verb = "send"
		cfg.Traffic.NumConnections = 16
		cfg.Traffic.NumMsgsPerQP = 5
		cfg.Traffic.MessageSize = 102400
		cfg.Traffic.MinRetransmitTimeout = 12
		tb, err := orchestrator.Build(cfg, orchestrator.DefaultOptions())
		if err != nil {
			return 0, err
		}
		tb.Flows[0].Resp.Prof.StrictAPM = strict
		rep, err := tb.Execute()
		if err != nil {
			return 0, err
		}
		return float64(rep.ResponderCounters[rnic.CtrRxDiscardsPhy]), nil
	}
	strict, err := measure(true)
	if err != nil {
		return nil, err
	}
	relaxed, err := measure(false)
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{"strict-apm", "cx5 strict APM", "rx-discards", strict},
		{"strict-apm", "cx5 w/o strict APM", "rx-discards", relaxed},
	}, nil
}

// AblateRSSRewrite measures the capture reliability the RSS-defeating
// port rewrite buys within the load-balanced pool.
func AblateRSSRewrite() ([]AblationPoint, error) {
	// A single line-rate flow is RSS's worst case: without the port
	// rewrite every node funnels its share into one core.
	var cfgs []config.Test
	for _, rewrite := range []bool{true, false} {
		cfg := config.Default()
		cfg.Name = fmt.Sprintf("rss-rewrite=%v", rewrite)
		cfg.Traffic.NumConnections = 1
		cfg.Traffic.NumMsgsPerQP = 160
		cfg.Traffic.MessageSize = 65536
		cfg.Traffic.TxDepth = 8
		cfg.Dumpers.RSSPortRewrite = rewrite
		cfgs = append(cfgs, cfg)
	}
	reps, err := runAll("rss-rewrite", cfgs)
	if err != nil {
		return nil, err
	}
	drops := func(rep *orchestrator.Report) float64 {
		var d uint64
		for _, ds := range rep.DumperStats {
			d += ds.Discards
		}
		return float64(d)
	}
	return []AblationPoint{
		{"rss-rewrite", "port rewrite on", "dumper-drops", drops(reps[0])},
		{"rss-rewrite", "port rewrite off", "dumper-drops", drops(reps[1])},
	}, nil
}

// AblateAckCoalescing measures control-packet overhead versus the
// coalescing factor: the ACK count drops with the factor while goodput
// stays flat.
func AblateAckCoalescing() ([]AblationPoint, error) {
	var out []AblationPoint
	for _, factor := range []int{1, 4, 16} {
		prof := rnic.Profiles()[rnic.ModelSpec]
		prof.AckCoalesce = factor
		pair, err := customPair(prof, prof, func(tr *config.Traffic) {
			tr.NumMsgsPerQP = 10
			tr.MessageSize = 102400
		}, rnic.ETSConfig{})
		if err != nil {
			return nil, err
		}
		acks := float64(pair.Resp.Counters.Get(rnic.CtrTxRoCEPackets))
		out = append(out,
			AblationPoint{"ack-coalesce", fmt.Sprintf("factor %d", factor), "responder-tx-pkts", acks},
			AblationPoint{"ack-coalesce", fmt.Sprintf("factor %d", factor), "goodput-gbps", pair.Results().Conns[0].GoodputGbps()},
		)
	}
	return out, nil
}

// AblationAll runs every ablation.
func AblationAll() ([]AblationPoint, error) {
	var out []AblationPoint
	for _, ablate := range []func() ([]AblationPoint, error){
		AblateETSClamp, AblateWedge, AblateAPM, AblateRSSRewrite, AblateAckCoalescing,
	} {
		pts, err := ablate()
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}
