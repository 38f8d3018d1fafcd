package analyzer_test

import (
	"bytes"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/trace"
)

// FuzzPcapToAnalyzers feeds capture bytes through everything `lumina
// trace` and the pcap fallback of `lumina trace explain` run on a file:
// pcap decoding, trace reconstruction, ITER rounds, the trace analyzers
// and wire-only lineage. Any input may be refused; none may panic.
func FuzzPcapToAnalyzers(f *testing.F) {
	cfg, err := config.Load("../../configs/listing2.yaml")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Trace.WritePcap(&buf); err != nil {
		f.Fatal(err)
	}
	capture := buf.Bytes()
	for _, n := range []int{len(capture), len(capture) - 1, len(capture) / 2, 24 + 16 + 40, 24 + 16, 24, 10, 0} {
		f.Add(capture[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := trace.ReadPcap(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs := make([]dumper.Record, 0, len(pkts))
		for _, p := range pkts {
			recs = append(recs, dumper.Record{Wire: p.Data})
		}
		tr, err := trace.Reconstruct(recs)
		if err != nil {
			return
		}
		tr.Span()
		for i := range tr.Entries {
			e := &tr.Entries[i]
			_, _, _ = e.Pkt.String(), e.Key(), e.Meta.Event.String()
		}
		analyzer.ReconstructITER(tr)
		analyzer.CheckGoBackN(tr)
		analyzer.RetransmissionStats(tr)
		analyzer.AnalyzeRetransmissions(tr)
		analyzer.AnalyzeCNP(tr)
		for _, it := range lineage.Build(tr, nil).Summarize().Items {
			_ = it.Story()
		}
	})
}
