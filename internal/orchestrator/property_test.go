// Cross-cutting property-based tests: whole-system invariants that must
// hold for arbitrary (bounded) workloads and event patterns, checked
// with testing/quick over end-to-end orchestrated runs.
package orchestrator

import (
	"bytes"
	"net/netip"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// arbitraryConfig derives a small but varied test configuration from
// fuzz inputs: verb, message geometry, connection count, and a set of
// drop/ecn events at bounded positions.
func arbitraryConfig(seed int64, verbSel, conns, msgs, sizeKB uint8, drops []uint8) config.Test {
	cfg := config.Default()
	cfg.Seed = seed
	cfg.Requester.NIC.Type = rnic.ModelSpec
	cfg.Responder.NIC.Type = rnic.ModelSpec
	cfg.Traffic.Verb = []string{"write", "read", "send"}[int(verbSel)%3]
	cfg.Traffic.NumConnections = int(conns)%3 + 1
	cfg.Traffic.NumMsgsPerQP = int(msgs)%3 + 1
	cfg.Traffic.MessageSize = (int(sizeKB)%8 + 1) * 1024
	cfg.Traffic.MinRetransmitTimeout = 10 // keep timeout recoveries fast

	totalPkts := cfg.Traffic.PacketsPerQP()
	for i, d := range drops {
		if i >= 3 {
			break
		}
		psn := int(d)%totalPkts + 1
		typ := "drop"
		if d%3 == 0 {
			typ = "ecn"
		}
		cfg.Traffic.Events = append(cfg.Traffic.Events, config.Event{
			QPN: i%cfg.Traffic.NumConnections + 1, PSN: psn, Type: typ, Iter: 1,
		})
	}
	return cfg
}

// TestPropertyEndToEnd verifies, for arbitrary bounded workloads with
// arbitrary single-round drop/ECN injections on a spec-conforming NIC:
//
//  1. every message completes successfully (losses are recoverable);
//  2. the reconstructed trace passes the three-condition integrity check;
//  3. the Go-back-N FSM checker finds no violations;
//  4. counters agree with the trace;
//  5. the run is deterministic (same config ⇒ same trace length).
func TestPropertyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end property sweep")
	}
	f := func(seed int64, verbSel, conns, msgs, sizeKB uint8, drops []uint8) bool {
		cfg := arbitraryConfig(seed, verbSel, conns, msgs, sizeKB, drops)
		rep, err := Run(cfg, Options{Deadline: 300 * sim.Second, Lineage: true})
		if err != nil || rep.TimedOut {
			t.Logf("cfg %+v: err=%v timedOut", cfg.Traffic, err)
			return false
		}
		for _, c := range rep.Traffic.Conns {
			if c.Statuses["OK"] != cfg.Traffic.NumMsgsPerQP {
				t.Logf("conn %d statuses %v", c.Index, c.Statuses)
				return false
			}
		}
		if !rep.IntegrityOK {
			t.Logf("integrity: %s", rep.IntegrityDetail)
			return false
		}
		if gbn := analyzer.CheckGoBackN(rep.Trace); !gbn.OK() {
			t.Logf("gbn violations: %v", gbn.Violations)
			return false
		}
		if v := rep.Verdicts[len(rep.Verdicts)-1]; v.Analyzer != "counter-consistency" || !v.Pass {
			t.Logf("counter consistency on spec NIC: %s", v.Line(0))
			return false
		}
		// Determinism: rerun and compare.
		rep2, err := Run(cfg, Options{Deadline: 300 * sim.Second})
		if err != nil || len(rep2.Trace.Entries) != len(rep.Trace.Entries) ||
			rep2.DurationNs != rep.DurationNs {
			t.Logf("nondeterministic rerun")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOfflineRetransConsistency: for arbitrary drop patterns,
// the duplicate data PSNs visible in the trace equal the requester's
// retransmit counter, and ITER reconstruction labels every duplicate
// with a round greater than 1. (Note ITER itself is sticky by design —
// fresh packets sent after a retransmission round inherit the round
// number, per Figure 3 — so round>1 alone does not mean "retransmitted".)
func TestPropertyOfflineRetransConsistency(t *testing.T) {
	f := func(seed int64, dropA, dropB uint8) bool {
		cfg := config.Default()
		cfg.Seed = seed
		cfg.Traffic.MessageSize = 10240
		cfg.Traffic.NumMsgsPerQP = 2
		cfg.Traffic.MinRetransmitTimeout = 10
		pA := int(dropA)%20 + 1
		pB := int(dropB)%20 + 1
		cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: pA, Type: "drop", Iter: 1}}
		if pB != pA {
			cfg.Traffic.Events = append(cfg.Traffic.Events,
				config.Event{QPN: 1, PSN: pB, Type: "drop", Iter: 1})
		}
		rep, err := Run(cfg, Options{Deadline: 300 * sim.Second})
		if err != nil || rep.TimedOut {
			return false
		}
		iters := analyzer.ReconstructITER(rep.Trace)
		seen := map[string]map[uint32]bool{}
		duplicates := 0
		for i := range rep.Trace.Entries {
			e := &rep.Trace.Entries[i]
			if !e.Opcode().IsData() {
				continue
			}
			k := e.Src().String() + ">" + e.Dst().String()
			if seen[k] == nil {
				seen[k] = map[uint32]bool{}
			}
			if seen[k][e.PSN()] {
				duplicates++
				if iters[i] < 2 {
					t.Logf("duplicate PSN %d labelled round %d", e.PSN(), iters[i])
					return false
				}
			}
			seen[k][e.PSN()] = true
		}
		counted := int(rep.RequesterCounters["retransmitted_packets"])
		if duplicates != counted {
			t.Logf("trace duplicates %d vs counter %d", duplicates, counted)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConservation: without drops, every transmitted RoCE packet
// is forwarded, mirrored exactly once, and captured exactly once.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, conns, msgs uint8) bool {
		cfg := config.Default()
		cfg.Seed = seed
		cfg.Traffic.NumConnections = int(conns)%4 + 1
		cfg.Traffic.NumMsgsPerQP = int(msgs)%4 + 1
		cfg.Traffic.MessageSize = 4096
		rep, err := Run(cfg, Options{Deadline: 300 * sim.Second})
		if err != nil || rep.TimedOut {
			return false
		}
		txSum := rep.RequesterCounters["tx_roce_packets"] + rep.ResponderCounters["tx_roce_packets"]
		rxSum := rep.RequesterCounters["rx_roce_packets"] + rep.ResponderCounters["rx_roce_packets"]
		if rep.SwitchTotals.RxRoCE != txSum || rxSum != txSum {
			return false
		}
		if rep.SwitchTotals.Mirrored != txSum {
			return false
		}
		var captured uint64
		for _, d := range rep.DumperStats {
			captured += d.Captured
		}
		return captured == txSum && uint64(len(rep.Trace.Entries)) == txSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// relabelling is an injective map over every ip-list address of the
// checked-in configs, with the order it is built to keep.
type relabelling struct {
	name string
	to   map[string]string
	// keepsStringOrder holds when the images sort as strings the way the
	// originals do; the address order is then reversed, and vice versa.
	keepsStringOrder bool
}

// addressRelabellings flip one of the two orders an implementation might
// sort addresses by and keep the other: a rendering that orders by either
// moves under one of them.
var addressRelabellings = []relabelling{
	{"address order flipped", map[string]string{
		"10.0.0.1": "10.0.0.100", "10.0.0.2": "10.0.0.40", "10.0.0.3": "10.0.0.5", "10.0.0.12": "10.0.0.4",
	}, true},
	{"string order flipped", map[string]string{
		"10.0.0.1": "10.0.0.3", "10.0.0.2": "10.0.0.20", "10.0.0.3": "10.0.0.100", "10.0.0.12": "10.0.0.250",
	}, false},
}

// dottedQuad matches a whole IPv4 address wherever it sits: summary JSON
// escapes '>' as >, so an address may follow a digit-free letter
// with no word boundary between them.
var dottedQuad = regexp.MustCompile(`\d+\.\d+\.\d+\.\d+`)

// TestPropertyAddressRelabelling: relabelling every address of a run
// consistently changes no verdict, and mapping the relabelled run's
// canonical summary and report.json back through the inverse gives the
// original bytes. The two relabellings catch any output ordered by the
// addresses themselves or by their strings.
//
// One quantity may move: the run's end time. A dumper node hashes the
// address bytes to pick the capturing core (§3.4's RSS), so when the
// last capture drains depends on the addresses; it is cleared before
// rendering. Every packet's time still reaches the summary through the
// chains' nodes.
func TestPropertyAddressRelabelling(t *testing.T) {
	inverses := make([]map[string]string, len(addressRelabellings))
	for n, rl := range addressRelabellings {
		inverses[n] = map[string]string{}
		for from, to := range rl.to {
			inverses[n][to] = from
		}
		if len(inverses[n]) != len(rl.to) {
			t.Fatalf("%s: not injective", rl.name)
		}
		for a, to := range rl.to {
			for b, tob := range rl.to {
				addrA, addrB := netip.MustParseAddr(a), netip.MustParseAddr(b)
				imgA, imgB := netip.MustParseAddr(to), netip.MustParseAddr(tob)
				sameStr := (a < b) == (to < tob)
				sameAddr := addrA.Less(addrB) == imgA.Less(imgB)
				if a != b && (sameStr != rl.keepsStringOrder || sameAddr == rl.keepsStringOrder) {
					t.Fatalf("%s: %s→%s, %s→%s does not flip the intended order", rl.name, a, to, b, tob)
				}
			}
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no configs: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			cfg, err := config.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			summary, report, verdicts := relabelledRun(t, cfg, nil)
			for n, rl := range addressRelabellings {
				undo := func(s string) string {
					return dottedQuad.ReplaceAllStringFunc(s, func(a string) string {
						if from, ok := inverses[n][a]; ok {
							return from
						}
						return a
					})
				}
				s, r, v := relabelledRun(t, cfg, rl.to)
				if got := undo(s); got != summary {
					t.Errorf("%s: canonical summary differs after the inverse map:\n%s\nwant\n%s", rl.name, got, summary)
				}
				if got := undo(r); got != report {
					t.Errorf("%s: report.json differs after the inverse map:\n%s\nwant\n%s", rl.name, got, report)
				}
				if len(v) != len(verdicts) {
					t.Fatalf("%s: %d verdicts, want %d", rl.name, len(v), len(verdicts))
				}
				for i := range v {
					v[i].Reason = undo(v[i].Reason)
					if v[i].Analyzer != verdicts[i].Analyzer || v[i].Pass != verdicts[i].Pass || v[i].Reason != verdicts[i].Reason {
						t.Errorf("%s: verdict %d is %+v, want %+v", rl.name, i, v[i], verdicts[i])
					}
				}
			}
		})
	}
}

// relabelledRun runs cfg with every ip-list address replaced through to
// (nil keeps them) and returns its canonical summary, its report.json and
// its verdicts.
func relabelledRun(t *testing.T, cfg config.Test, to map[string]string) (summary, report string, verdicts []analyzer.Verdict) {
	t.Helper()
	for _, nic := range []*config.NIC{&cfg.Requester.NIC, &cfg.Responder.NIC} {
		ips := slices.Clone(nic.IPList)
		for i, a := range ips {
			if to == nil {
				continue
			}
			img, ok := to[a.String()]
			if !ok {
				t.Fatalf("address %s has no relabelling", a)
			}
			ips[i] = netip.MustParseAddr(img)
		}
		nic.IPList = ips
	}
	rep, err := Run(cfg, Options{Lineage: true})
	if err != nil {
		t.Fatal(err)
	}
	rep.DurationNs = 0
	var rb strings.Builder
	if err := rep.writeReport(&rb); err != nil {
		t.Fatal(err)
	}
	return canonicalSummary(t, rep), rb.String(), rep.Verdicts
}

// canonicalSummary renders rep's summary.json with code_version cleared,
// so two builds of one history render the same bytes.
func canonicalSummary(t *testing.T, rep *Report) string {
	t.Helper()
	s := rep.Summary()
	s.CodeVersion = ""
	var sb strings.Builder
	if err := writeJSON(&sb, s); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPropertyUnmatchableEvent: appending an event no packet can match —
// a drop of a PSN no connection in the checked-in configs reaches —
// changes no verdict and no byte of the canonical summary. An injector
// that matched on fewer fields than the event names would drop a packet
// and move both.
func TestPropertyUnmatchableEvent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no configs: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			cfg, err := config.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			var summaries [2]string
			var verdicts [2][]analyzer.Verdict
			for i := range summaries {
				if i == 1 {
					cfg.Traffic.Events = append(slices.Clone(cfg.Traffic.Events),
						config.Event{QPN: 1, PSN: 16000000, Type: "drop", Iter: 1})
				}
				rep, err := Run(cfg, Options{Lineage: true})
				if err != nil {
					t.Fatal(err)
				}
				summaries[i], verdicts[i] = canonicalSummary(t, rep), rep.Verdicts
			}
			if summaries[1] != summaries[0] {
				t.Errorf("canonical summary moved:\n%s\nwant\n%s", summaries[1], summaries[0])
			}
			if len(verdicts[1]) != len(verdicts[0]) {
				t.Fatalf("%d verdicts, want %d", len(verdicts[1]), len(verdicts[0]))
			}
			for i, v := range verdicts[1] {
				if w := verdicts[0][i]; v.Analyzer != w.Analyzer || v.Pass != w.Pass || v.Reason != w.Reason {
					t.Errorf("verdict %d is %+v, want %+v", i, v, w)
				}
			}
		})
	}
}

// TestPropertyInertListingKeys: the Listing-1 keys no model reads —
// workspace, control-ip, nic.if-name, nic.switch-port and
// roce-parameters.slow-restart — name a testbed, not a behaviour, so
// flipping each on both hosts of the paper's running example leaves
// summary.json, trace.pcap and the canonical summary digest
// byte-identical. They stay part of the scenario's identity: its
// config.ContentHash moves. report.json echoes the config, so it moves
// too and is not compared.
func TestPropertyInertListingKeys(t *testing.T) {
	cfg, err := config.Load(filepath.Join("..", "..", "configs", "listing2.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	base := inertRun(t, cfg)
	for _, fl := range []struct {
		key  string
		flip func(*config.Host)
	}{
		{"workspace", func(h *config.Host) { h.Workspace += "/flipped" }},
		{"control-ip", func(h *config.Host) { h.ControlIP += "-flipped" }},
		{"nic.if-name", func(h *config.Host) { h.NIC.IfName += "f" }},
		{"nic.switch-port", func(h *config.Host) { h.NIC.SwitchPort += 7 }},
		{"roce-parameters.slow-restart", func(h *config.Host) { h.RoCE.SlowRestart = !h.RoCE.SlowRestart }},
	} {
		c := cfg
		fl.flip(&c.Requester)
		fl.flip(&c.Responder)
		got := inertRun(t, c)
		for name, b := range base.artifacts {
			if !bytes.Equal(got.artifacts[name], b) {
				t.Errorf("%s: %s moved", fl.key, name)
			}
		}
		if got.digest != base.digest {
			t.Errorf("%s: summary digest %s, want %s", fl.key, got.digest, base.digest)
		}
		if got.hash == base.hash {
			t.Errorf("%s: content hash %s did not move: the key left the scenario's identity", fl.key, got.hash)
		}
	}
}

// inertOutcome is what TestPropertyInertListingKeys compares of a run.
type inertOutcome struct {
	artifacts    map[string][]byte // summary.json and trace.pcap
	digest, hash string
}

func inertRun(t *testing.T, cfg config.Test) inertOutcome {
	t.Helper()
	hash, err := config.ContentHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg, Options{Lineage: true})
	if err != nil {
		t.Fatal(err)
	}
	out := inertOutcome{artifacts: map[string][]byte{}, hash: hash}
	for _, a := range rep.Artifacts() {
		if a.Name == SummaryName || a.Name == TraceName {
			if out.artifacts[a.Name], err = a.Bytes(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(out.artifacts) != 2 {
		t.Fatalf("run rendered %d of summary.json and trace.pcap", len(out.artifacts))
	}
	if out.digest, err = rep.SummaryDigest(); err != nil {
		t.Fatal(err)
	}
	return out
}
