package orchestrator

import (
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// ucDropConfig drops one mid-message packet of a UC Write stream.
func ucDropConfig() config.Test {
	cfg := config.Default()
	cfg.Name = "uc-drop"
	cfg.Seed = 5
	cfg.Traffic.Transport = "uc"
	cfg.Traffic.Verb = "write"
	cfg.Traffic.MessageSize = 4096
	cfg.Traffic.NumMsgsPerQP = 3
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 6, Iter: 1, Type: "drop"}}
	return cfg
}

// udDropConfig drops one of four UD Send datagrams.
func udDropConfig() config.Test {
	cfg := config.Default()
	cfg.Name = "ud-drop"
	cfg.Seed = 9
	cfg.Traffic.Transport = "ud"
	cfg.Traffic.Verb = "send"
	cfg.Traffic.MessageSize = 1024
	cfg.Traffic.NumMsgsPerQP = 4
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 2, Iter: 1, Type: "drop"}}
	return cfg
}

// TestUnreliableDropLineageTerminatesWithoutRecovery pins the UC/UD
// lineage shape: a drop on an unreliable transport yields a bare
// inject-node chain — no rewind, no retransmit, no completion edge —
// and the silent-loss verdict passes while retrans reports zero drops
// to recover.
func TestUnreliableDropLineageTerminatesWithoutRecovery(t *testing.T) {
	opts := Options{Deadline: 600 * sim.Second, Lineage: true}
	for _, cfg := range []config.Test{ucDropConfig(), udDropConfig()} {
		rep, err := Run(cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if rep.Lineage == nil {
			t.Fatalf("%s: no lineage graph", cfg.Name)
		}
		var drops []lineage.Chain
		for _, ch := range rep.Lineage.Chains {
			if ch.Event == packet.EventDrop {
				drops = append(drops, ch)
			}
		}
		if len(drops) != 1 {
			t.Fatalf("%s: %d drop chain(s), want 1", cfg.Name, len(drops))
		}
		ch := drops[0]
		if len(ch.Nodes) != 1 || len(ch.Edges) != 0 {
			t.Errorf("%s: drop chain has %d node(s) and %d edge(s); want a bare inject node (silent loss has no recovery story)",
				cfg.Name, len(ch.Nodes), len(ch.Edges))
		}
		if kind := rep.Lineage.Nodes[ch.Nodes[0]].Kind; kind != lineage.NodeInject {
			t.Errorf("%s: chain root is %q, want %q", cfg.Name, kind, lineage.NodeInject)
		}
		if ch.Completed {
			t.Errorf("%s: silent-loss chain marked Completed", cfg.Name)
		}

		byName := map[string]int{}
		for i, v := range rep.Verdicts {
			byName[v.Analyzer] = i
		}
		sl, ok := byName["silent-loss"]
		if !ok {
			t.Fatalf("%s: no silent-loss verdict in %v", cfg.Name, byName)
		}
		if !rep.Verdicts[sl].Pass {
			t.Errorf("%s: silent-loss verdict failed: %s", cfg.Name, rep.Verdicts[sl].Reason)
		}
		for _, name := range []string{"gbn", "retrans", "cnp"} {
			i, ok := byName[name]
			if !ok {
				t.Fatalf("%s: missing %s verdict", cfg.Name, name)
			}
			if !rep.Verdicts[i].Pass {
				t.Errorf("%s: %s verdict failed: %s", cfg.Name, name, rep.Verdicts[i].Reason)
			}
		}
	}
}

// TestRCRunsCarryNoSilentLossVerdict pins the RC verdict shape: the
// paper's four analyzers, and no silent-loss verdict.
func TestRCRunsCarryNoSilentLossVerdict(t *testing.T) {
	rep, err := Run(rcPinConfig(), Options{Deadline: 600 * sim.Second, Lineage: true})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(rep.Verdicts))
	for _, v := range rep.Verdicts {
		names = append(names, v.Analyzer)
	}
	if got, want := strings.Join(names, " "), "gbn retrans cnp counter-consistency"; got != want {
		t.Fatalf("RC run has verdicts %s, want %s", got, want)
	}
}

// TestTransportOverrideChangesRunAndFingerprint checks the -transport
// knob: the override must reach the QPs (different wire history) and
// the options fingerprint (different cache key).
func TestTransportOverrideChangesRunAndFingerprint(t *testing.T) {
	cfg := config.Default()
	cfg.Traffic.Verb = "send"
	cfg.Traffic.MessageSize = 1024

	base := Options{Deadline: 600 * sim.Second, Lineage: true}
	ud := base
	ud.Transport = "ud"
	if base.Fingerprint() == ud.Fingerprint() {
		t.Error("transport override absent from Options.Fingerprint")
	}

	repRC, err := Run(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	repUD, err := Run(cfg, ud)
	if err != nil {
		t.Fatal(err)
	}
	// RC acks the send; UD puts nothing on the reverse path, so the
	// traces must differ in size.
	if len(repRC.Trace.Entries) <= len(repUD.Trace.Entries) {
		t.Errorf("RC trace %d packets vs UD %d: override did not reach the QPs",
			len(repRC.Trace.Entries), len(repUD.Trace.Entries))
	}

	bad := base
	bad.Transport = "xrc"
	if _, err := Run(cfg, bad); err == nil {
		t.Error("unknown transport override accepted")
	}
}
