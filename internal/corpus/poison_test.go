package corpus

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// TestPoisonedFramesLeaveDigestsUnchanged is the use-after-release
// detector for the frame pool. With sim.PoisonReleasedFrames on, every
// frame handed back to a pool is overwritten with 0xDB, so a component
// that reads a frame after releasing it — or after the peer it passed
// ownership to did — parses garbage and the run's summary changes. The
// scenarios cover the release sites: listing2 (ECN rewrite copies, drops,
// CNPs), retry-exhaustion (black-holed retransmissions), the 16-host
// fabric incast (frames released two and three hops from their sender)
// and the noisy-neighbor config (NIC pipeline wedges discarding
// arrivals). The three checked-in corpus entries must still match their
// goldens; the config, which has no golden, must match its own
// unpoisoned run.
func TestPoisonedFramesLeaveDigestsUnchanged(t *testing.T) {
	entries := []string{
		"a982ccd565a57c48", // listing2
		"19aed828727d4213", // retry-exhaustion
		"c563496672a52ab8", // fabric-incast-16
	}
	dir := t.TempDir()
	for _, id := range entries {
		if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"scenario.yaml", "expected.json"} {
			data, err := os.ReadFile(filepath.Join("..", "..", "corpus", id, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, id, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	noisy, err := config.Load(filepath.Join("..", "..", "configs", "noisy-neighbor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	noisyDigest := func() string {
		opts := orchestrator.DefaultOptions()
		opts.Lineage = true
		rep, err := orchestrator.Run(noisy, opts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := rep.SummaryDigest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := noisyDigest()

	defer sim.PoisonReleasedFrames(sim.PoisonReleasedFrames(true))
	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK() || len(m.Rows) != len(entries) {
		var b bytes.Buffer
		m.Render(&b)
		t.Errorf("poisoned replay drifted from the goldens:\n%s", b.String())
	}
	if got := noisyDigest(); got != clean {
		t.Errorf("noisy-neighbor summary digest %s with poisoned frames, %s without", got, clean)
	}
}
