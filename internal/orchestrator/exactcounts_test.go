package orchestrator

import (
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// TestExactCounts pins the deterministic counts of the three benchmark
// scenarios at DefaultOptions: simulator events executed, RoCE packets
// through the switch, virtual duration. A change that moves one of them
// moved the simulated history or the event budget, and owes CHANGES.md a
// line saying why. Last moved when portTxDone stopped being an event
// (events −26/−28/−29 %; packets and virtual time did not move).
func TestExactCounts(t *testing.T) {
	for _, w := range []struct {
		file     string
		events   uint64
		pkts     uint64
		duration sim.Time
	}{
		{"bulk.yaml", 88295, 10322, 43607232},
		{"noisy_read.yaml", 83209, 10699, 337151388},
		{"incast.yaml", 41920, 2560, 334297},
	} {
		cfg, err := config.Load(filepath.Join("..", "..", "bench", "workloads", w.file))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := Build(cfg, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		rep, err := tb.Execute()
		if err != nil {
			t.Fatalf("%s: %v", w.file, err)
		}
		if got := tb.Sim.Executed(); got != w.events || rep.SwitchTotals.RxRoCE != w.pkts || rep.DurationNs != w.duration {
			t.Errorf("%s: (events, packets, virtual ns) = (%d, %d, %d), want (%d, %d, %d)",
				w.file, got, rep.SwitchTotals.RxRoCE, rep.DurationNs, w.events, w.pkts, w.duration)
		}
	}
}
