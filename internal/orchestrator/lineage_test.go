package orchestrator

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

func lineageCfg() config.Test {
	c := baseCfg()
	c.Traffic.Events = []config.Event{
		{QPN: 1, PSN: 4, Type: "ecn", Iter: 1},
		{QPN: 2, PSN: 5, Type: "drop", Iter: 1},
	}
	return c
}

func runArtifacts(t *testing.T, cfg config.Test) (*Report, map[string][]byte) {
	t.Helper()
	opts := DefaultOptions()
	opts.Telemetry = true
	opts.Lineage = true
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep, writtenTree(t, rep)
}

// allObservers turns every observe-only tap on.
func allObservers() Options {
	o := DefaultOptions()
	o.Telemetry, o.Lineage, o.INT, o.Coverage = true, true, true, true
	return o
}

// writtenTree returns every file WriteArtifacts produces for rep, keyed
// by name — the whole externally visible output of a run.
func writtenTree(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// The golden-fixture determinism contract: two same-seed runs, and a
// run under GOMAXPROCS=1, all serialize byte-identical summary.json
// and timeline.json; a leaf-spine incast with every observer on repeats
// its whole artifact tree.
func TestSummaryAndTimelineAreByteIdenticalAcrossRuns(t *testing.T) {
	incast := config.Default()
	incast.Name = "incast-test"
	incast.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 8, UplinkGbps: 400, Pattern: "incast"}
	incast.Traffic.NumConnections = 2
	incast.Traffic.NumMsgsPerQP = 2
	incast.Traffic.Events = nil
	var trees [2]map[string][]byte
	for i := range trees {
		rep, err := Run(incast, allObservers())
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = writtenTree(t, rep)
	}
	a, b := trees[0], trees[1]
	if len(a) != 7 || len(b) != len(a) {
		t.Fatalf("incast runs wrote %d and %d artifacts, want all 7 twice", len(a), len(b))
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("same-seed incast runs produced different %s bytes", name)
		}
	}

	cfg := lineageCfg()
	_, f1 := runArtifacts(t, cfg)
	_, f2 := runArtifacts(t, cfg)
	for _, name := range []string{"summary.json", "timeline.json"} {
		if !bytes.Equal(f1[name], f2[name]) {
			t.Fatalf("same-seed runs produced different %s bytes", name)
		}
	}

	prev := runtime.GOMAXPROCS(1)
	_, f3 := runArtifacts(t, cfg)
	runtime.GOMAXPROCS(prev)
	for _, name := range []string{"summary.json", "timeline.json"} {
		if !bytes.Equal(f1[name], f3[name]) {
			t.Fatalf("GOMAXPROCS=1 produced different %s bytes", name)
		}
	}
}

// Lineage reconstruction is offline: enabling it (with or without
// telemetry) must not change the simulated packet history.
func TestLineageDoesNotPerturbTrace(t *testing.T) {
	cfg := lineageCfg()
	_, withLineage := runArtifacts(t, cfg)

	bare, err := Run(cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var barePcap bytes.Buffer
	if err := bare.Trace.WritePcap(&barePcap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(barePcap.Bytes(), withLineage["trace.pcap"]) {
		t.Fatal("enabling lineage+telemetry changed the packet trace bytes")
	}
	if bare.Lineage != nil || bare.Verdicts != nil {
		t.Fatal("lineage computed without Options.Lineage")
	}
}

// Verdicts must appear both on the report and as probe instants on the
// orchestrator timeline track.
func TestVerdictsPublishedAsProbes(t *testing.T) {
	rep, _ := runArtifacts(t, lineageCfg())
	if len(rep.Verdicts) != 4 {
		t.Fatalf("verdicts = %+v, want gbn/retrans/cnp/counter-consistency", rep.Verdicts)
	}
	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Fatalf("verdict %s failed on a recoverable scenario: %s", v.Analyzer, v.Reason)
		}
		if v.Reason == "" {
			t.Fatalf("verdict %s has no reason", v.Analyzer)
		}
	}
	probes := 0
	for _, ev := range rep.Events {
		if ev.Kind() == telemetry.KindVerdict {
			if ev.Track() != "orchestrator" {
				t.Fatalf("verdict probe on track %q", ev.Track())
			}
			probes++
		}
	}
	if probes != len(rep.Verdicts) {
		t.Fatalf("%d verdict probes for %d verdicts", probes, len(rep.Verdicts))
	}

	// The drop verdicts cite the causal chains they judged.
	for _, v := range rep.Verdicts {
		if v.Analyzer == "retrans" && len(v.Chains) == 0 {
			t.Fatal("retrans verdict cites no lineage chains")
		}
	}
}

// taildropCfg runs eight Write QPs that each lose their last packet, so
// every connection recovers by its own retransmission timer while the
// others' timers fire around it.
func taildropCfg(t *testing.T) config.Test {
	t.Helper()
	y := `name: taildrop
requester: {nic: {type: cx5, ip-list: [10.0.0.1]}}
responder: {nic: {type: cx5, ip-list: [10.0.0.2]}}
traffic:
  num-connections: 8
  rdma-verb: write
  num-msgs-per-qp: 1
  mtu: 1024
  message-size: 4096
  min-retransmit-timeout: 15
  data-pkt-events:
`
	for qpn := 1; qpn <= 8; qpn++ {
		y += fmt.Sprintf("    - {qpn: %d, psn: 4, type: drop, iter: 1}\n", qpn)
	}
	cfg, err := config.Parse([]byte(y))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// Each tail-drop chain's timer node is the fire of the QP that sent the
// dropped packet, not the first fire of any QP in the window.
func TestRTOChainsNameTheirOwnRequester(t *testing.T) {
	rep, _ := runArtifacts(t, taildropCfg(t))
	// The requester of a connection is the QP whose RTS probe names the
	// data packets' destination QP as its remote.
	requester := map[uint32]string{} // responder QPN → requester track
	fires := map[string][]int64{}    // track → its timer fires
	for i := range rep.Events {
		ev := &rep.Events[i]
		switch {
		case ev.Kind() == telemetry.KindQPState && ev.Name() == "RTS":
			requester[uint32(ev.Arg(0).Val)] = ev.Track()
		case ev.Kind() == telemetry.KindRetransTimer && ev.Name() == "fire":
			fires[ev.Track()] = append(fires[ev.Track()], ev.At)
		}
	}
	actors := map[uint32]bool{}
	for _, ch := range rep.Lineage.Chains {
		track := requester[ch.Conn.DstQPN]
		want, err := strconv.ParseUint(track[strings.LastIndex(track, "-0x")+3:], 16, 32)
		if err != nil {
			t.Fatalf("requester track %q of conn %+v: %v", track, ch.Conn, err)
		}
		if ch.ActorQPN != uint32(want) {
			t.Errorf("chain on qp 0x%06x names actor 0x%06x, want its requester 0x%06x", ch.Conn.DstQPN, ch.ActorQPN, want)
		}
		actors[ch.ActorQPN] = true
		rto := -1
		for _, id := range ch.Nodes {
			if rep.Lineage.Nodes[id].Kind == lineage.NodeRTO {
				rto = id
			}
		}
		if rto < 0 {
			t.Errorf("chain on qp 0x%06x has no rto-fire node", ch.Conn.DstQPN)
			continue
		}
		if at := int64(rep.Lineage.Nodes[rto].At); !slices.Contains(fires[track], at) {
			t.Errorf("chain on qp 0x%06x: rto-fire at %d is none of %s's fires %v", ch.Conn.DstQPN, at, track, fires[track])
		}
	}
	if len(rep.Lineage.Chains) != 8 || len(actors) != 8 {
		t.Fatalf("%d chains with %d distinct actors, want 8 and 8", len(rep.Lineage.Chains), len(actors))
	}
}
