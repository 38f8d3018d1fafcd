package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// TestScratchReuseParallelIdentity drives real orchestrator runs — which
// exercise every reused buffer on the hot path: per-QP scratch packets,
// the shared zero payload, NIC rx-packet freelists, the injector's
// mirror-buffer pool, the dumper arenas, and the frames and event
// structs a closed simulator hands to the next — across a worker pool,
// and asserts the summary digests match a serial run of the same batch.
// Run under -race (CI does) this doubles as the proof that scratch reuse
// is confined to one worker's simulator while it runs: frames and events
// move between workers only from a closed simulator to a new one, and
// the only memory shared by two running simulators is read-only.
func TestScratchReuseParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations; skipped in -short")
	}
	// A varied batch so the scratch paths all fire: every NIC model,
	// both verbs, drop and ECN injections (retransmissions, NACKs, CNPs,
	// and read responses all cross reused buffers).
	var jobs []Job
	for i, model := range rnic.ModelNames() {
		for _, verb := range []string{"write", "read"} {
			cfg := config.Default()
			cfg.Name = fmt.Sprintf("%s-%s", model, verb)
			cfg.Requester.NIC.Type = model
			cfg.Responder.NIC.Type = model
			cfg.Traffic.Verb = verb
			cfg.Traffic.NumMsgsPerQP = 2
			cfg.Traffic.Events = []config.Event{
				{QPN: 1, PSN: 3, Type: "drop", Iter: 1},
				{QPN: 1, PSN: 5, Type: "ecn", Iter: 2},
			}
			cfg.Seed += int64(i)
			jobs = append(jobs, Job{Label: cfg.Name, Cfg: cfg})
		}
	}

	digestBatch := func(workers int) []string {
		t.Helper()
		results := Run(context.Background(), jobs, Options{Workers: workers})
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %q: %v", workers, jobs[i].Label, r.Err)
			}
			out[i] = summaryDigest(t, r.Report)
		}
		return out
	}

	serial := digestBatch(1)
	parallel := digestBatch(8)
	for i := range jobs {
		if serial[i] != parallel[i] {
			t.Errorf("job %q: summary digest differs between workers=1 (%s) and workers=8 (%s)",
				jobs[i].Label, serial[i][:12], parallel[i][:12])
		}
	}
}

func summaryDigest(t *testing.T, rep *orchestrator.Report) string {
	t.Helper()
	h := sha256.New()
	if err := rep.WriteSummary(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
