package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// These tests pin the reproducibility contract of the run engine: the
// worker-pool size is an execution detail, never an input to the
// measured history. Every rendered table (TestPaperTablesMatchGolden)
// and every summary.json must be byte-identical whether the job matrix
// runs serially or fans out.

// atWorkers runs f with the package worker count pinned to n, restoring
// the previous setting afterwards.
func atWorkers(t *testing.T, n int, f func() string) string {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	return f()
}

func TestSummariesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// A small mixed matrix: different models, a drop, an ECN mark.
	var cfgs []config.Test
	for i, model := range []string{rnic.ModelCX5, rnic.ModelCX4, rnic.ModelE810} {
		cfg := config.Default()
		cfg.Name = fmt.Sprintf("parallel-summary-%s", model)
		cfg.Requester.NIC.Type = model
		cfg.Responder.NIC.Type = model
		cfg.Seed = int64(i + 1)
		cfg.Traffic.NumMsgsPerQP = 2
		cfg.Traffic.MessageSize = 20480
		switch i {
		case 1:
			cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 3, Type: "drop", Iter: 1}}
		case 2:
			cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: 4}}
		}
		cfgs = append(cfgs, cfg)
	}
	summaries := func() string {
		reps, err := runAll("parallel-summary", cfgs)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, rep := range reps {
			if err := rep.WriteSummary(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	serial := atWorkers(t, 1, summaries)
	parallel := atWorkers(t, 8, summaries)
	if serial != parallel {
		t.Fatal("summary.json stream differs between workers=1 and workers=8")
	}
}
