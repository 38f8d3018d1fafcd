package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
	"strings"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/version"
)

// SummarySchema versions the summary.json layout for cross-run diffing
// tools; bump it when a field changes meaning or disappears.
const SummarySchema = "lumina-summary/1"

// LatencyDigest is the percentile digest of one registry histogram.
type LatencyDigest struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

// Summary is the layout of summary.json, the machine-readable run
// summary: readers decode the file into it, and WriteSummary writes the
// bytes encoding/json renders of it. It is designed for cross-run
// diffing: every field is derived deterministically from the run (field
// order is fixed, slices are in deterministic order, the only map —
// chains.by_event — has sorted keys), so two same-seed runs produce
// byte-identical files.
type Summary struct {
	Schema string `json:"schema"`
	// CodeVersion is the build stamp of the binary that produced the
	// run (version.Stamp). It is provenance, not behaviour: the
	// canonical digest form (SummaryDigest) clears it, so golden
	// summary digests recorded in the corpus survive commits that do
	// not change simulated behaviour.
	CodeVersion string   `json:"code_version,omitempty"`
	Name        string   `json:"name"`
	Seed        int64    `json:"seed"`
	Requester   string   `json:"requester_nic"`
	Responder   string   `json:"responder_nic"`
	Verb        string   `json:"verb"`
	DurationNs  sim.Time `json:"duration_ns"`
	TimedOut    bool     `json:"timed_out"`

	IntegrityOK  bool `json:"integrity_ok"`
	TracePackets int  `json:"trace_packets"`

	MessagesOK     int `json:"messages_ok"`
	MessagesFailed int `json:"messages_failed"`

	Verdicts  []analyzer.Verdict     `json:"verdicts,omitempty"`
	Chains    *lineage.ChainsSummary `json:"chains,omitempty"`
	Latencies []LatencyDigest        `json:"latencies,omitempty"`
}

// WriteSummary appends the summary as indented JSON, including the
// build's code_version stamp: the bytes json.MarshalIndent renders of
// the Summary value, written straight from the report and its lineage
// graph.
func (r *Report) WriteSummary(w io.Writer) error {
	j := newJSONW(w)
	r.appendSummary(&j, version.Stamp())
	return j.end()
}

// SummaryDigest is the hex SHA-256 of the canonical summary form — the
// summary with CodeVersion cleared — which is the quantity corpus
// goldens record and replays compare. Golden digests must identify
// behaviour, not builds: a digest that changed on every commit could
// never catch a drift.
func (r *Report) SummaryDigest() (string, error) {
	h := sha256.New()
	j := newJSONW(h)
	r.appendSummary(&j, "")
	if err := j.end(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// appendSummary writes the Summary of the report, field for field as
// encoding/json renders the struct, with codeVersion as its stamp.
func (r *Report) appendSummary(j *jsonw, codeVersion string) {
	j.open('{')
	j.str("schema", SummarySchema)
	if codeVersion != "" {
		j.str("code_version", codeVersion)
	}
	j.str("name", r.Config.Name)
	j.int("seed", r.Config.Seed)
	j.str("requester_nic", r.Config.Requester.NIC.Type)
	j.str("responder_nic", r.Config.Responder.NIC.Type)
	j.str("verb", r.Config.Traffic.Verb)
	j.int("duration_ns", int64(r.DurationNs))
	j.bool("timed_out", r.TimedOut)
	j.bool("integrity_ok", r.IntegrityOK)
	packets, ok, failed := 0, 0, 0
	if r.Trace != nil {
		packets = len(r.Trace.Entries)
	}
	if r.Traffic != nil {
		for _, c := range r.Traffic.Conns {
			for st, n := range c.Statuses {
				if st == "OK" {
					ok += n
				} else {
					failed += n
				}
			}
		}
	}
	j.int("trace_packets", int64(packets))
	j.int("messages_ok", int64(ok))
	j.int("messages_failed", int64(failed))
	j.verdicts(r.Verdicts)
	if g := r.Lineage; g != nil {
		j.key("chains")
		appendChains(j, g)
	}
	if r.Metrics != nil && len(r.Metrics.Histograms) > 0 {
		j.key("latencies")
		j.open('[')
		for i := range r.Metrics.Histograms {
			h := &r.Metrics.Histograms[i]
			j.elem()
			j.open('{')
			j.str("name", h.Name)
			j.int("count", h.Count)
			j.int("p50_ns", h.P50)
			j.int("p99_ns", h.P99)
			j.int("max_ns", h.Max)
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
}

// appendChains writes the graph as its lineage.ChainsSummary: by_event
// in sorted key order, each chain's edges naming their ends by position
// in the chain.
func appendChains(j *jsonw, g *lineage.Graph) {
	j.open('{')
	completed := 0
	var counts [8]eventCount // by_event: room for every event name and "unknown"
	byEvent := counts[:0]
	for i := range g.Chains {
		ch := &g.Chains[i]
		if ch.Completed {
			completed++
		}
		name := ch.Event.String()
		k := slices.IndexFunc(byEvent, func(c eventCount) bool { return c.name == name })
		if k < 0 {
			k = len(byEvent)
			byEvent = append(byEvent, eventCount{name: name})
		}
		byEvent[k].n++
	}
	j.int("total", int64(len(g.Chains)))
	j.int("completed", int64(completed))
	if len(byEvent) > 0 {
		slices.SortFunc(byEvent, func(a, b eventCount) int { return strings.Compare(a.name, b.name) })
		j.key("by_event")
		j.open('{')
		for _, c := range byEvent {
			j.int(c.name, int64(c.n))
		}
		j.close('}')
		j.key("items")
		j.open('[')
		for i := range g.Chains {
			j.elem()
			appendChain(j, g, &g.Chains[i])
		}
		j.close(']')
	}
	j.close('}')
}

// eventCount is one by_event entry.
type eventCount struct {
	name string
	n    int
}

// appendChain writes one chain as its lineage.ChainItem.
func appendChain(j *jsonw, g *lineage.Graph, ch *lineage.Chain) {
	j.open('{')
	j.uint("lineage", ch.Lineage)
	j.str("event", ch.Event.String())
	var conn [96]byte
	j.key("conn")
	writeString(j, lineage.AppendConn(conn[:0], ch.Conn))
	j.uint("psn", uint64(ch.PSN))
	if ch.ActorQPN != 0 {
		j.uint("actor_qpn", uint64(ch.ActorQPN))
	}
	j.bool("completed", ch.Completed)
	j.key("nodes")
	if ch.Nodes == nil {
		j.null()
	} else {
		j.open('[')
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			j.elem()
			j.open('{')
			j.str("kind", string(n.Kind))
			j.int("at_ns", int64(n.At))
			j.str("label", n.Label)
			if n.PSN != 0 {
				j.uint("psn", uint64(n.PSN))
			}
			if n.Seq != 0 {
				j.uint("seq", n.Seq)
			}
			j.close('}')
		}
		j.close(']')
	}
	if len(ch.Edges) > 0 {
		j.key("edges")
		j.open('[')
		for _, e := range ch.Edges {
			j.elem()
			j.open('{')
			j.int("from", int64(ch.Local(e.From)))
			j.int("to", int64(ch.Local(e.To)))
			j.str("label", e.Label)
			j.int("latency_ns", int64(e.Latency))
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
}

// Outcome is the judged form of a run: what a consumer needs to score
// it (corpus golden comparison, cached result.json, serve status
// responses) without re-parsing the heavyweight artifacts. It is the
// per-profile value of a corpus expected.json and the embedded head of
// a cached result.json, so its field order is part of both formats.
type Outcome struct {
	// Verdicts maps analyzer name → pass.
	Verdicts map[string]bool `json:"verdicts"`
	TimedOut bool            `json:"timed_out"`
	// SummarySHA256 is SummaryDigest: the canonical
	// (code_version-cleared) summary digest.
	SummarySHA256 string `json:"summary_sha256"`
}

// Outcome condenses the report into its judged form. It renders the
// canonical summary once, for the digest, and nothing else.
func (r *Report) Outcome() (Outcome, error) {
	digest, err := r.SummaryDigest()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Verdicts: make(map[string]bool, len(r.Verdicts)), TimedOut: r.TimedOut, SummarySHA256: digest}
	for _, v := range r.Verdicts {
		out.Verdicts[v.Analyzer] = v.Pass
	}
	return out, nil
}
