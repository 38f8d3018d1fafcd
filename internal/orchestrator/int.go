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

// buildINTReport joins stamps with the lineage graph (when built) and
// runs the hop-level analyzers. Called before the events snapshot so the
// INT verdict probes land in the timeline.
func buildINTReport(c *inband.Collector, rep *Report, hub *telemetry.Hub) *INTReport {
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

// WriteINT appends the INT report as indented JSON (the int.json
// artifact): the bytes writeJSON renders of r.INT, written field by
// field.
func (r *Report) WriteINT(w io.Writer) error {
	j := newJSONW(w)
	r.INT.appendTo(&j)
	return j.end()
}

// appendTo writes the report as encoding/json renders the struct.
func (ir *INTReport) appendTo(j *jsonw) {
	if ir == nil {
		j.null()
		return
	}
	j.open('{')
	j.str("schema", ir.Schema)
	j.key("hops")
	if ir.Hops == nil {
		j.null()
	} else {
		j.open('[')
		for i := range ir.Hops {
			h := &ir.Hops[i]
			j.elem()
			j.open('{')
			j.uint("id", uint64(h.ID))
			j.str("name", h.Name)
			if h.Origin {
				j.bool("origin", true)
			}
			j.uint("stamps", h.Stamps)
			j.int("max_queue_bytes", h.MaxQueueBytes)
			j.uint("max_util_permille", uint64(h.MaxUtilPermille))
			j.close('}')
		}
		j.close(']')
	}
	j.int("stamps", int64(ir.Stamps))
	j.uint("transits", ir.Transits)
	j.int("binds", int64(ir.Binds))
	j.verdicts(ir.Verdicts)
	if len(ir.Chains) > 0 {
		j.key("chains")
		j.open('[')
		for i := range ir.Chains {
			j.elem()
			appendChainHops(j, &ir.Chains[i])
		}
		j.close(']')
	}
	j.close('}')
}

// appendChainHops writes one annotated chain as encoding/json renders
// inband.ChainHops.
func appendChainHops(j *jsonw, ch *inband.ChainHops) {
	j.open('{')
	j.uint("lineage", ch.Lineage)
	j.str("event", ch.Event)
	j.uint("psn", uint64(ch.PSN))
	j.bool("completed", ch.Completed)
	j.key("nodes")
	if ch.Nodes == nil {
		j.null()
	} else {
		j.open('[')
		for i := range ch.Nodes {
			n := &ch.Nodes[i]
			j.elem()
			j.open('{')
			j.str("kind", n.Kind)
			j.int("at_ns", n.AtNs)
			j.uint("psn", uint64(n.PSN))
			if n.Seq != 0 {
				j.uint("seq", n.Seq)
			}
			if n.Transit != 0 {
				j.uint("transit", n.Transit)
			}
			if len(n.Hops) > 0 {
				j.key("hops")
				j.open('[')
				for k := range n.Hops {
					c := &n.Hops[k]
					j.elem()
					j.open('{')
					j.str("hop", c.Hop)
					j.int("at_ns", c.AtNs)
					j.int("queue_bytes", c.QueueBytes)
					j.uint("util_permille", uint64(c.UtilPermille))
					j.int("latency_ns", c.LatencyNs)
					j.close('}')
				}
				j.close(']')
			}
			j.close('}')
		}
		j.close(']')
	}
	if len(ch.PerHop) > 0 {
		j.key("per_hop")
		j.open('[')
		for i := range ch.PerHop {
			d := &ch.PerHop[i]
			j.elem()
			j.open('{')
			j.str("hop", d.Hop)
			j.int("crossings", int64(d.Crossings))
			j.int("max_queue_bytes", d.MaxQueueBytes)
			j.uint("max_util_permille", uint64(d.MaxUtilPermille))
			j.int("total_latency_ns", d.TotalLatencyNs)
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
}
