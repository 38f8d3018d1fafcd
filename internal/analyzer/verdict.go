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
	// Hosts are the sides of the run whose NIC counters the
	// counter-consistency verdict holds to the trace (§6.2.4); Unjudged
	// names the sides the trace cannot account for. The verdict is
	// emitted either way, naming what it left out.
	Hosts    []HostView
	Unjudged []string
}

// Analysis is every trace analyzer's finding over one run, each
// computed once: Verdicts judges it, and `lumina run` prints its details.
type Analysis struct {
	GBN *GBNReport
	// Retrans holds every retransmission event, those on unreliable QPs
	// included; the retrans verdict leaves those out.
	Retrans []RetransEvent
	CNP     *CNPReport
	// SilentLoss is nil unless the run had UC/UD connections.
	SilentLoss []SilentLoss
	// Counters holds every disagreement between a judged side's NIC
	// counters and the trace; Hosts and Unjudged are the options' sides.
	Counters []Inconsistency
	Hosts    []HostView
	Unjudged []string

	unreliable map[uint32]bool
}

// Analyze runs the trace analyzers once over tr; nil for a nil trace.
func Analyze(tr *trace.Trace, opts VerdictOptions) *Analysis {
	if tr == nil {
		return nil
	}
	return &Analysis{
		GBN:        CheckGoBackN(tr),
		Retrans:    AnalyzeRetransmissions(tr),
		CNP:        AnalyzeCNP(tr),
		SilentLoss: AnalyzeSilentLoss(tr, opts.UnreliableQPNs),
		Counters:   checkCounters(tr, opts.Hosts),
		Hosts:      opts.Hosts,
		Unjudged:   opts.Unjudged,
		unreliable: opts.UnreliableQPNs,
	}
}

// VerdictsWith analyzes tr and judges the analysis.
func VerdictsWith(tr *trace.Trace, g *lineage.Graph, opts VerdictOptions) []Verdict {
	return Analyze(tr, opts).Verdicts(g)
}

// Verdicts renders the analysis as pass/fail judgements; nil for a nil
// analysis. g supplies the causal chains each verdict cites; it may be
// nil (verdicts then carry no chain references).
func (a *Analysis) Verdicts(g *lineage.Graph) []Verdict {
	if a == nil {
		return nil
	}
	chainsOf := func(events ...packet.EventType) []uint64 {
		if g == nil {
			return nil
		}
		return g.ChainsOf(events...)
	}
	var out []Verdict

	gbn := a.GBN
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

	drops, recovered, timeouts := 0, 0, 0
	for i := range a.Retrans {
		ev := &a.Retrans[i]
		if a.unreliable[ev.Conn.DstQPN] {
			continue
		}
		drops++
		if ev.RetransTime != 0 {
			recovered++
		}
		if ev.Timeout {
			timeouts++
		}
	}
	out = append(out, Verdict{
		Analyzer: "retrans", Pass: recovered == drops,
		Reason: fmt.Sprintf("%d drop(s): %d recovered (%d by timeout), %d unrecovered",
			drops, recovered, timeouts, drops-recovered),
		Chains: chainsOf(packet.EventDrop, packet.EventCorrupt),
	})

	cnp := a.CNP
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

	// The silent-loss contract only exists on UC/UD runs.
	if len(a.unreliable) > 0 {
		losses := a.SilentLoss
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

	reason := []string{fmt.Sprintf("%d of %d side(s) judged, %d inconsistent counter(s)",
		len(a.Hosts), len(a.Hosts)+len(a.Unjudged), len(a.Counters))}
	for _, inc := range a.Counters {
		reason = append(reason, inc.String())
	}
	if len(a.Unjudged) > 0 {
		reason = append(reason, "not judged: "+strings.Join(a.Unjudged, ", ")+
			" (the trace cannot account for every packet they send)")
	}
	return append(out, Verdict{Analyzer: "counter-consistency", Pass: len(a.Counters) == 0, Reason: strings.Join(reason, "; ")})
}
