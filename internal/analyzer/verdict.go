package analyzer

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/trace"
)

// Verdict is one analyzer's pass/fail judgement over a run, citing the
// exact causal chains (lineage IDs) it judged so a failure can be
// replayed with `lumina trace explain`.
type Verdict struct {
	Analyzer string   `json:"analyzer"`
	Pass     bool     `json:"pass"`
	Reason   string   `json:"reason"`
	Chains   []uint64 `json:"chains,omitempty"`
}

// Line renders the verdict as the one report line every CLI prints:
// analyzer name padded to width, PASS or FAIL, the reason, and the
// lineage IDs of the chains it cites.
func (v Verdict) Line(width int) string {
	result := "PASS"
	if !v.Pass {
		result = "FAIL"
	}
	line := fmt.Sprintf("%-*s %s  %s", width, v.Analyzer, result, v.Reason)
	if len(v.Chains) > 0 {
		ids := make([]string, len(v.Chains))
		for i, id := range v.Chains {
			ids[i] = strconv.FormatUint(id, 10)
		}
		line += "  [lineage " + strings.Join(ids, ",") + "]"
	}
	return line
}

// VerdictOptions carries run context the verdicts need beyond the trace
// itself. The zero value describes an all-RC run.
type VerdictOptions struct {
	// UnreliableQPNs is the destination-QPN set of UC/UD connections.
	// Drops into these QPs are excluded from the retrans verdict (no
	// recovery is expected) and judged by the silent-loss verdict
	// instead, which is emitted only when the set is non-empty.
	UnreliableQPNs map[uint32]bool
}

// Verdicts runs the trace analyzers and renders their findings as
// verdicts, assuming an all-RC run. g supplies the causal chains each
// verdict cites; it may be nil (verdicts then carry no chain
// references).
func Verdicts(tr *trace.Trace, g *lineage.Graph) []Verdict {
	return VerdictsWith(tr, g, VerdictOptions{})
}

// VerdictsWith is Verdicts with explicit run context.
func VerdictsWith(tr *trace.Trace, g *lineage.Graph, opts VerdictOptions) []Verdict {
	if tr == nil {
		return nil
	}
	chainsOf := func(events ...packet.EventType) []uint64 {
		if g == nil {
			return nil
		}
		return g.ChainsOf(events...)
	}
	var out []Verdict

	gbn := CheckGoBackN(tr)
	v := Verdict{
		Analyzer: "gbn", Pass: gbn.OK(),
		Chains: chainsOf(packet.EventDrop, packet.EventCorrupt,
			packet.EventDelay, packet.EventReorder),
	}
	if gbn.OK() {
		v.Reason = fmt.Sprintf("%d connection-direction(s) replayed, no violations",
			gbn.ConnsChecked)
	} else {
		v.Reason = fmt.Sprintf("%d violation(s); first: %s",
			len(gbn.Violations), gbn.Violations[0])
	}
	out = append(out, v)

	retrans := AnalyzeRetransmissions(tr)
	if len(opts.UnreliableQPNs) > 0 {
		kept := retrans[:0]
		for i := range retrans {
			if !opts.UnreliableQPNs[retrans[i].Conn.DstQPN] {
				kept = append(kept, retrans[i])
			}
		}
		retrans = kept
	}
	recovered, timeouts := 0, 0
	for i := range retrans {
		if retrans[i].RetransTime != 0 {
			recovered++
		}
		if retrans[i].Timeout {
			timeouts++
		}
	}
	out = append(out, Verdict{
		Analyzer: "retrans", Pass: recovered == len(retrans),
		Reason: fmt.Sprintf("%d drop(s): %d recovered (%d by timeout), %d unrecovered",
			len(retrans), recovered, timeouts, len(retrans)-recovered),
		Chains: chainsOf(packet.EventDrop),
	})

	cnp := AnalyzeCNP(tr)
	marked := 0
	for _, n := range cnp.ECNMarked {
		marked += n
	}
	out = append(out, Verdict{
		Analyzer: "cnp", Pass: cnp.Orphans == 0,
		Reason: fmt.Sprintf("%d CE-marked packet(s), %d CNP(s), %d orphan(s)",
			marked, cnp.TotalCNPs(), cnp.Orphans),
		Chains: chainsOf(packet.EventECN),
	})

	// The silent-loss contract only exists on UC/UD runs; RC-only runs
	// keep their historical three-verdict shape byte for byte.
	if len(opts.UnreliableQPNs) > 0 {
		losses := AnalyzeSilentLoss(tr, opts.UnreliableQPNs)
		silent, anomalous := 0, 0
		for i := range losses {
			if losses[i].Silent() {
				silent++
			} else {
				anomalous++
			}
		}
		out = append(out, Verdict{
			Analyzer: "silent-loss", Pass: anomalous == 0,
			Reason: fmt.Sprintf("%d drop(s) on unreliable transports: %d stayed silent, %d anomalous (retransmitted or NAKed)",
				len(losses), silent, anomalous),
			Chains: chainsOf(packet.EventDrop),
		})
	}
	return out
}
