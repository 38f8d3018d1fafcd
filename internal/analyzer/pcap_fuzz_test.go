package analyzer_test

import (
	"bytes"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/trace"
)

// addCaptureSeeds seeds f with the capture of each run and with
// truncations of it: cut mid-record, at headers, and empty.
func addCaptureSeeds(f *testing.F, cfgs ...config.Test) {
	for _, cfg := range cfgs {
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
	}
}

// pcapTrace reads capture bytes the way `lumina trace` does: pcap
// decoding, then trace reconstruction. ok is false for a refused input.
func pcapTrace(data []byte) (tr *trace.Trace, ok bool) {
	tr, err := trace.FromPcap(bytes.NewReader(data))
	return tr, err == nil
}

// FuzzPcapToAnalyzers feeds capture bytes through everything `lumina
// trace` and the pcap fallback of `lumina trace explain` run on a file:
// pcap decoding, trace reconstruction, ITER rounds, the trace analyzers
// and wire-only lineage, with every header accessor called on every
// admitted entry. Any input may be refused; none may panic.
func FuzzPcapToAnalyzers(f *testing.F) {
	cfg, err := config.Load("../../configs/listing2.yaml")
	if err != nil {
		f.Fatal(err)
	}
	addCaptureSeeds(f, cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := pcapTrace(data)
		if !ok {
			return
		}
		tr.Span()
		for i := range tr.Entries {
			e := &tr.Entries[i]
			_, _, _, _ = e.String(), e.Key(), e.Meta().Event.String(), e.OrigLen()
			_, _, _, _, _ = e.Opcode(), e.PSN(), e.DestQP(), e.PadCount(), e.ECN()
			_, _, _, _ = e.Src(), e.Dst(), e.AETH(), e.DMALen()
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
