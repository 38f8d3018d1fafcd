package orchestrator

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// These digests were recorded on the RC transport engine before UC and
// UD joined it in internal/rnic, and they still hold: the canonical
// summary.json (verdicts, chain structure, durations, trace size) of an
// RC run must stay byte-identical through any restructuring of the
// transport code. Drift here means a change altered RC semantics, not
// just code layout. (The test's name keeps the name of the first such
// refactor.) They were re-recorded once, when the counter-consistency
// verdict joined the summary's verdicts.
const (
	rcGoldenDropDigest    = "43bce69b7d5dae707945f91e432bb944520988a499da7ce111db0d6645caad97"
	rcGoldenInOrderDigest = "39cc93fcac8886c2fc913ee502c26e76290f369b33513c347451767f2e989b44"
)

func rcPinConfig() config.Test {
	cfg := config.Default()
	cfg.Name = "rc-refactor-pin"
	cfg.Seed = 7
	cfg.Requester.NIC.Type = "cx5"
	cfg.Responder.NIC.Type = "cx5"
	cfg.Traffic.Verb = "write"
	cfg.Traffic.NumMsgsPerQP = 3
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Iter: 1, Type: "drop"}}
	return cfg
}

func rcPinSendConfig() config.Test {
	cfg := config.Default()
	cfg.Name = "rc-refactor-pin-send"
	cfg.Seed = 11
	cfg.Traffic.Verb = "send"
	cfg.Traffic.NumMsgsPerQP = 2
	return cfg
}

func TestRCSummaryByteIdenticalAcrossStackModelRefactor(t *testing.T) {
	opts := Options{Deadline: 600 * sim.Second, Lineage: true}
	for _, tc := range []struct {
		cfg    config.Test
		golden string
	}{
		{rcPinConfig(), rcGoldenDropDigest},
		{rcPinSendConfig(), rcGoldenInOrderDigest},
	} {
		rep, err := Run(tc.cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.cfg.Name, err)
		}
		got, err := rep.SummaryDigest()
		if err != nil {
			t.Fatalf("%s: digest: %v", tc.cfg.Name, err)
		}
		if got != tc.golden {
			t.Errorf("%s: summary digest %s, pre-refactor golden %s",
				tc.cfg.Name, got, tc.golden)
		}
	}
}
