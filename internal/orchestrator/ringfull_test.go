package orchestrator

import (
	"fmt"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// TestRingOverflowsReachTheTimeline runs the experiments' rss-rewrite
// ablation without the port rewrite (one line-rate flow funnelled into
// one core per dumper, §3.5) with telemetry on. The timeline keeps one
// ring_full instant per discard the report counts, each carrying the
// full ring's depth and preceded on its node's track by an occupancy
// sample at least that deep; the node's ring_peak gauge reaches it too.
func TestRingOverflowsReachTheTimeline(t *testing.T) {
	cfg := config.Default()
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 160
	cfg.Traffic.MessageSize = 65536
	cfg.Traffic.TxDepth = 8
	cfg.Dumpers.RSSPortRewrite = false
	opts := DefaultOptions()
	opts.Telemetry = true
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	depth := int64(dumper.DefaultConfig().RingDepth)

	fulls := map[string]uint64{}
	occupancy := map[string]int64{} // track → last ring_occupancy sample
	for i := range rep.Events {
		ev := &rep.Events[i]
		switch {
		case ev.Kind() == telemetry.KindDumperQueue && ev.Name() == "ring_occupancy":
			occupancy[ev.Track()] = ev.Arg(0).Val
		case ev.Kind() == telemetry.KindDumperDisc && ev.Name() == "ring_full":
			fulls[ev.Track()]++
			if d, ok := ev.Lookup("depth"); !ok || d.Val != depth {
				t.Fatalf("%s ring_full at %d carries depth %+v, want %d", ev.Track(), ev.At, d, depth)
			}
			if occ := occupancy[ev.Track()]; occ < depth {
				t.Fatalf("%s ring_full at %d follows an occupancy sample of %d, under the ring depth %d", ev.Track(), ev.At, occ, depth)
			}
		}
	}
	var discards, sprayed uint64
	for _, ds := range rep.DumperStats {
		track := fmt.Sprintf("dumper-%d", ds.Node)
		if fulls[track] != ds.Discards {
			t.Errorf("%s: %d ring_full instants, %d discards", track, fulls[track], ds.Discards)
		}
		if peak := gaugeValue(rep.Metrics, track+".ring_peak"); ds.Discards > 0 && peak < depth {
			t.Errorf("%s discarded %d with a ring_peak of %d", track, ds.Discards, peak)
		}
		discards += ds.Discards
		sprayed += uint64(counterValue(rep.Metrics, "switch.spray."+track))
	}
	if discards == 0 {
		t.Fatal("the ablation scenario discarded nothing: it no longer overflows a ring")
	}
	if mirrored := uint64(counterValue(rep.Metrics, "switch.mirrored")); sprayed != mirrored {
		t.Errorf("switch.spray counters sum to %d, switch.mirrored is %d", sprayed, mirrored)
	}
}

func gaugeValue(m *telemetry.MetricsSnapshot, name string) int64 {
	for _, g := range m.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return -1
}

// counterValue is the named counter's value, zero when absent.
func counterValue(m *telemetry.MetricsSnapshot, name string) int64 {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func hist(m *telemetry.MetricsSnapshot, name string) *telemetry.HistSnap {
	for i := range m.Histograms {
		if m.Histograms[i].Name == name {
			return &m.Histograms[i]
		}
	}
	return nil
}
