package orchestrator

import (
	"io"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// INTSchema versions the int.json layout for cross-run diffing tools;
// bump it when a field changes meaning or disappears.
const INTSchema = "lumina-int/1"

// INTReport is the in-band telemetry bundle WriteArtifacts emits as
// int.json: the hop table with per-hop aggregates, stamp/transit/bind
// counts, the hop-level analyzer verdicts, and every lineage chain
// annotated with its per-hop latency/queue-depth breakdown. Every field
// derives deterministically from the run, so same-seed runs — at any
// engine worker count — produce byte-identical files.
type INTReport struct {
	Schema string `json:"schema"`

	Hops     []inband.HopSummary `json:"hops"`
	Stamps   int                 `json:"stamps"`
	Transits uint64              `json:"transits"`
	Binds    int                 `json:"binds"`

	// Verdicts are the hop-level analyzer judgements (coverage,
	// pressure attribution). They cite lineage chain IDs like the main
	// verdicts but live here, not in Report.Verdicts, so summary.json
	// and the corpus goldens stay INT-agnostic.
	Verdicts []analyzer.Verdict `json:"verdicts,omitempty"`

	// Chains are the lineage chains with per-hop annotations.
	Chains []inband.ChainHops `json:"chains,omitempty"`
}

// buildINTReport drains the collector into the hub, joins stamps with
// the lineage graph (when built), and runs the hop-level analyzers.
// Called before the metrics/events snapshot so INT counters and verdict
// probes land in metrics.json and the timeline.
func buildINTReport(c *inband.Collector, rep *Report, hub *telemetry.Hub) *INTReport {
	c.Publish()
	ir := &INTReport{
		Schema:   INTSchema,
		Hops:     c.Hops(),
		Stamps:   c.StampCount(),
		Transits: c.TransitCount(),
		Binds:    c.BindCount(),
	}
	if rep.Lineage != nil {
		ir.Chains = c.Join(rep.Lineage)
	}
	ir.Verdicts = analyzer.HopVerdicts(ir.Chains, ir.Hops)
	emitVerdicts(hub, "int", ir.Verdicts)
	return ir
}

// WriteINT renders the INT report as indented JSON (the int.json
// artifact).
func (r *Report) WriteINT(w io.Writer) error {
	return writeJSON(w, r.INT)
}
