package experiments

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
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

// variants returns one copy of base per override set, each set on the
// host side picks; nil runs the model as it is.
func variants(base config.Test, side func(*config.Test) *config.Host, overrides ...*config.Overrides) []config.Test {
	cfgs := make([]config.Test, len(overrides))
	for i, o := range overrides {
		cfgs[i] = base
		side(&cfgs[i]).NIC.Profile = o
	}
	return cfgs
}

func requester(c *config.Test) *config.Host { return &c.Requester }
func responder(c *config.Test) *config.Host { return &c.Responder }

// AblateETSClamp measures the throughput a lone flow loses to the CX6 Dx
// guarantee clamp, by running the requester without it.
func AblateETSClamp() ([]AblationPoint, error) {
	cfg := config.Default()
	cfg.Name = "ets-clamp"
	cfg.Requester.NIC.Type = rnic.ModelCX6
	cfg.Responder.NIC.Type = rnic.ModelCX6
	cfg.Requester.ETS = []config.ETSQueue{{Weight: 50}, {Weight: 50}}
	cfg.Traffic.NumMsgsPerQP = 5
	cfg.Traffic.MessageSize = 1 << 20
	cfg.Traffic.TxDepth = 4
	reps, err := runAll(cfg.Name, variants(cfg, requester, nil, &config.Overrides{NoETSClamp: true}))
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{"ets-clamp", "cx6 (clamped)", "lone-flow-gbps", reps[0].Traffic.Conns[0].GoodputGbps()},
		{"ets-clamp", "cx6 w/o clamp", "lone-flow-gbps", reps[1].Traffic.Conns[0].GoodputGbps()},
	}, nil
}

// AblateWedge measures the noisy-neighbor amplification carried by the
// slow-path wedge, by giving the CX4 requester unlimited slow-path
// contexts.
func AblateWedge() ([]AblationPoint, error) {
	cfg := config.Default()
	cfg.Name = "slow-path-wedge"
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
	reps, err := runAll(cfg.Name, variants(cfg, requester, nil, &config.Overrides{NoSlowPathWedge: true}))
	if err != nil {
		return nil, err
	}
	innocentMCT := func(rep *orchestrator.Report) float64 {
		var innocent sim.Duration
		n := 0
		for i := range rep.Traffic.Conns {
			c := &rep.Traffic.Conns[i]
			if c.Index >= 12 {
				innocent += c.AvgMCT()
				n++
			}
		}
		return float64(innocent/sim.Duration(n)) / 1e6 // ms
	}
	return []AblationPoint{
		{"slow-path-wedge", "cx4 (10 contexts)", "innocent-mct-ms", innocentMCT(reps[0])},
		{"slow-path-wedge", "cx4 unlimited contexts", "innocent-mct-ms", innocentMCT(reps[1])},
	}, nil
}

// AblateAPM measures the interop damage carried by the strict-APM slow
// path, by running the CX5 responder without it.
func AblateAPM() ([]AblationPoint, error) {
	cfg := config.Default()
	cfg.Name = "strict-apm"
	cfg.Requester.NIC.Type = rnic.ModelE810
	cfg.Responder.NIC.Type = rnic.ModelCX5
	cfg.Traffic.Verb = "send"
	cfg.Traffic.NumConnections = 16
	cfg.Traffic.NumMsgsPerQP = 5
	cfg.Traffic.MessageSize = 102400
	cfg.Traffic.MinRetransmitTimeout = 12
	reps, err := runAll(cfg.Name, variants(cfg, responder, nil, &config.Overrides{NoStrictAPM: true}))
	if err != nil {
		return nil, err
	}
	discards := func(rep *orchestrator.Report) float64 {
		return float64(rep.ResponderCounters[rnic.CtrRxDiscardsPhy])
	}
	return []AblationPoint{
		{"strict-apm", "cx5 strict APM", "rx-discards", discards(reps[0])},
		{"strict-apm", "cx5 w/o strict APM", "rx-discards", discards(reps[1])},
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
// responder's coalescing factor: the ACK count drops with the factor
// while goodput stays flat.
func AblateAckCoalescing() ([]AblationPoint, error) {
	cfg := config.Default()
	cfg.Name = "ack-coalesce"
	cfg.Traffic.NumMsgsPerQP = 10
	cfg.Traffic.MessageSize = 102400
	cfg.Traffic.TxDepth = 4
	factors := []int{1, 4, 16}
	var overrides []*config.Overrides
	for _, f := range factors {
		overrides = append(overrides, &config.Overrides{AckCoalesce: f})
	}
	reps, err := runAll(cfg.Name, variants(cfg, responder, overrides...))
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for i, rep := range reps {
		variant := fmt.Sprintf("factor %d", factors[i])
		out = append(out,
			AblationPoint{"ack-coalesce", variant, "responder-tx-pkts", float64(rep.ResponderCounters[rnic.CtrTxRoCEPackets])},
			AblationPoint{"ack-coalesce", variant, "goodput-gbps", rep.Traffic.Conns[0].GoodputGbps()},
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
