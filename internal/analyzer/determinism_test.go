package analyzer_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// TestAnalyzersRepeatOnNoisyNeighbor runs the analyzers twenty times over
// one noisy-neighbor trace — 36 Read QPs on one IP pair with random
// 24-bit starting PSNs, so several streams are "near" every re-read and
// every NAK-equivalent — and requires every line they print to repeat.
// Streams are matched nearest-PSN in first-seen order; matched in map
// order, the implied_nak_seq_err line read 15, 23, 25, 18… from run to
// run. Twelve packets are dropped, so twelve re-reads carry out-of-order
// evidence.
func TestAnalyzersRepeatOnNoisyNeighbor(t *testing.T) {
	cfg, err := config.Load(filepath.Join("..", "..", "configs", "noisy-neighbor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	opts := orchestrator.DefaultOptions()
	opts.Lineage = true
	rep, err := orchestrator.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var b strings.Builder
		for _, v := range analyzer.VerdictsWith(rep.Trace, rep.Lineage, analyzer.VerdictOptions{Hosts: rep.Analysis.Hosts}) {
			fmt.Fprintln(&b, v.Line(8))
		}
		gbn := analyzer.CheckGoBackN(rep.Trace)
		fmt.Fprintf(&b, "gbn: %d conns, %d gaps, %v\n", gbn.ConnsChecked, gbn.Events, gbn.Violations)
		return b.String()
	}
	first := render()
	for i := 1; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("analyzer pass %d differs from the first:\n%s\nfirst:\n%s", i, again, first)
		}
	}
	want := fmt.Sprintf("requester %s: NIC 0, trace 12", rnic.CtrImpliedNakSeq)
	if !strings.Contains(first, want) {
		t.Fatalf("analyzers did not report %q:\n%s", want, first)
	}
}
