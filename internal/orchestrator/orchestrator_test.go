package orchestrator

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

func baseCfg() config.Test {
	c := config.Default()
	c.Traffic.NumConnections = 2
	c.Traffic.NumMsgsPerQP = 5
	c.Traffic.MessageSize = 10240
	return c
}

func run(t *testing.T, cfg config.Test) *Report {
	t.Helper()
	rep, err := Run(cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut {
		t.Fatal("run timed out")
	}
	return rep
}

// entries returns the trace entries keep accepts, in trace order.
func entries(tr *trace.Trace, keep func(*trace.Entry) bool) []*trace.Entry {
	var out []*trace.Entry
	for i := range tr.Entries {
		if keep(&tr.Entries[i]) {
			out = append(out, &tr.Entries[i])
		}
	}
	return out
}

func isData(e *trace.Entry) bool { return e.Opcode().IsData() }

// marked accepts the entries the injector marked with ev.
func marked(ev packet.EventType) func(*trace.Entry) bool {
	return func(e *trace.Entry) bool { return e.Meta().Event == ev }
}

func TestCleanRunCollectsEverything(t *testing.T) {
	rep := run(t, baseCfg())

	// Traffic completed.
	if rep.Traffic == nil || len(rep.Traffic.Conns) != 2 {
		t.Fatalf("traffic results = %+v", rep.Traffic)
	}
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 5 {
			t.Fatalf("conn %d statuses = %v", c.Index, c.Statuses)
		}
		if c.Bytes != 5*10240 {
			t.Fatalf("conn %d bytes = %d", c.Index, c.Bytes)
		}
		if c.AvgMCT() <= 0 {
			t.Fatal("MCT not measured")
		}
	}

	// Integrity check passed and the trace covers all RoCE packets.
	if !rep.IntegrityOK {
		t.Fatalf("integrity failed: %s", rep.IntegrityDetail)
	}
	if uint64(len(rep.Trace.Entries)) != rep.SwitchTotals.RxRoCE {
		t.Fatalf("trace %d entries vs %d RoCE packets", len(rep.Trace.Entries), rep.SwitchTotals.RxRoCE)
	}

	// Data packets: 2 conns × 5 msgs × 10 packets, plus ACKs.
	if got := len(entries(rep.Trace, isData)); got != 100 {
		t.Fatalf("trace data packets = %d, want 100", got)
	}

	// Counters collected from both NICs.
	if rep.RequesterCounters[rnic.CtrTxRoCEPackets] == 0 {
		t.Fatal("requester counters empty")
	}
	if rep.ResponderCounters[rnic.CtrRxRoCEPackets] == 0 {
		t.Fatal("responder counters empty")
	}
	if len(rep.DumperStats) == 0 {
		t.Fatal("no dumper stats")
	}
}

func TestListing2ScenarioEndToEnd(t *testing.T) {
	// The paper's Listing 2: ECN on packet 4 of conn 1; drop packet 5 of
	// conn 2 and drop its retransmission too.
	cfg := baseCfg()
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 10
	cfg.Traffic.MessageSize = 10240
	cfg.Traffic.Events = []config.Event{
		{QPN: 1, PSN: 4, Type: "ecn", Iter: 1},
		{QPN: 2, PSN: 5, Type: "drop", Iter: 1},
		{QPN: 2, PSN: 5, Type: "drop", Iter: 2},
	}
	rep := run(t, cfg)
	if !rep.IntegrityOK {
		t.Fatalf("integrity: %s", rep.IntegrityDetail)
	}

	// All messages still completed (the second retransmission goes
	// through).
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 10 {
			t.Fatalf("conn %d statuses = %v", c.Index, c.Statuses)
		}
	}

	ecns := entries(rep.Trace, marked(packet.EventECN))
	if len(ecns) != 1 {
		t.Fatalf("ECN events in trace = %d, want 1", len(ecns))
	}
	drops := entries(rep.Trace, marked(packet.EventDrop))
	if len(drops) != 2 {
		t.Fatalf("drop events in trace = %d, want 2 (original + retransmission)", len(drops))
	}
	// Both drops hit the same wire PSN.
	if drops[0].PSN() != drops[1].PSN() {
		t.Fatalf("drop PSNs differ: %d vs %d", drops[0].PSN(), drops[1].PSN())
	}
	// The responder NAKed at least once; the trace shows it.
	if len(entries(rep.Trace, func(e *trace.Entry) bool { return e.Opcode().IsAck() && e.AETH().IsNak() })) == 0 {
		t.Fatal("no NAK in trace despite drops")
	}
	// The CE mark is visible on the forwarded packet at the responder:
	// the responder generated a CNP.
	if len(entries(rep.Trace, func(e *trace.Entry) bool { return e.Opcode().IsCNP() })) == 0 {
		t.Fatal("no CNP in trace despite ECN marking")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 3, Type: "drop", Iter: 1}}
	r1 := run(t, cfg)
	r2 := run(t, cfg)
	if len(r1.Trace.Entries) != len(r2.Trace.Entries) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace.Entries), len(r2.Trace.Entries))
	}
	for i := range r1.Trace.Entries {
		a, b := r1.Trace.Entries[i], r2.Trace.Entries[i]
		if a.Meta() != b.Meta() || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("entry %d differs between identical runs", i)
		}
	}
	if r1.DurationNs != r2.DurationNs {
		t.Fatalf("durations differ: %v vs %v", r1.DurationNs, r2.DurationNs)
	}

	// A different seed produces different QPNs (runtime randomness).
	cfg.Seed = 999
	r3 := run(t, cfg)
	if r3.Traffic.Conns[0].ReqQPN == r1.Traffic.Conns[0].ReqQPN {
		t.Fatal("different seeds produced identical QPNs")
	}
}

func TestReadVerbEndToEnd(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.Verb = "read"
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
	rep := run(t, cfg)
	if !rep.IntegrityOK {
		t.Fatalf("integrity: %s", rep.IntegrityDetail)
	}
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 5 {
			t.Fatalf("conn %d statuses = %v", c.Index, c.Statuses)
		}
	}
	// The drop rule targets responder→requester read-response data.
	drops := entries(rep.Trace, marked(packet.EventDrop))
	if len(drops) != 1 {
		t.Fatalf("drops = %d", len(drops))
	}
	if !drops[0].Opcode().IsReadResponse() {
		t.Fatalf("dropped packet opcode = %v, want a read response", drops[0].Opcode())
	}
	// Duplicate read request (the implied NAK) appears in the trace.
	reqs := entries(rep.Trace, func(e *trace.Entry) bool {
		return e.Opcode().IsReadRequest()
	})
	if len(reqs) <= 5*2 { // 2 conns × 5 msgs = 10 first-time requests
		t.Fatalf("read requests = %d, want > 10 (re-read present)", len(reqs))
	}
}

func TestSendVerbEndToEnd(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.Verb = "send"
	rep := run(t, cfg)
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 5 {
			t.Fatalf("statuses = %v", c.Statuses)
		}
	}
}

func TestBarrierSyncKeepsRoundsAligned(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.BarrierSync = true
	cfg.Traffic.NumConnections = 4
	cfg.Traffic.NumMsgsPerQP = 3
	rep := run(t, cfg)
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 3 {
			t.Fatalf("statuses = %v", c.Statuses)
		}
	}
}

func TestMultiGID(t *testing.T) {
	cfg := baseCfg()
	cfg.Requester.NIC.IPList = append(cfg.Requester.NIC.IPList,
		cfg.Requester.NIC.IPList[0].Next())
	cfg.Traffic.MultiGID = true
	cfg.Traffic.NumConnections = 2
	rep := run(t, cfg)
	// The two connections use distinct source IPs.
	srcs := map[string]bool{}
	for _, e := range entries(rep.Trace, isData) {
		srcs[e.Src().String()] = true
	}
	if len(srcs) != 2 {
		t.Fatalf("data packets from %d source IPs, want 2 (multi-GID)", len(srcs))
	}
}

func TestMirrorDisabledSkipsIntegrity(t *testing.T) {
	cfg := baseCfg()
	cfg.Switch.Mirror = false
	rep := run(t, cfg)
	if !rep.IntegrityOK {
		t.Fatal("integrity should be vacuously OK without mirroring")
	}
	if len(rep.Trace.Entries) != 0 {
		t.Fatal("trace entries without mirroring")
	}
}

func TestDeadlineTimeout(t *testing.T) {
	cfg := baseCfg()
	// Black-hole every packet of conn 1 forever via repeated drops:
	// cannot finish within a tiny deadline.
	cfg.Traffic.NumMsgsPerQP = 1
	cfg.Traffic.MessageSize = 1024
	var evs []config.Event
	for iter := 1; iter <= 20; iter++ {
		evs = append(evs, config.Event{QPN: 1, PSN: 1, Type: "drop", Iter: iter})
	}
	cfg.Traffic.Events = evs
	opts := Options{Deadline: 1 * sim.Millisecond} // << the 67 ms RTO
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut {
		t.Fatal("run should have timed out")
	}
}

func TestDeadlineTimeoutStillCollectsTelemetry(t *testing.T) {
	// A timed-out run must still yield partial artifacts: the truncated
	// traffic snapshot, NIC counters, and — with telemetry on — the
	// metrics registry and probe stream recorded up to the deadline.
	cfg := baseCfg()
	cfg.Traffic.NumMsgsPerQP = 1
	cfg.Traffic.MessageSize = 4096 // multi-packet: inter-packet gaps exist
	var evs []config.Event
	for iter := 1; iter <= 20; iter++ {
		evs = append(evs, config.Event{QPN: 1, PSN: 1, Type: "drop", Iter: iter})
	}
	cfg.Traffic.Events = evs
	opts := Options{Deadline: 1 * sim.Millisecond, Telemetry: true} // << the 67 ms RTO
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut {
		t.Fatal("run should have timed out")
	}

	// Partial traffic results: QPN 1 (conn index 0) is black-holed, the
	// other connection finished its single message — both appear in the
	// snapshot.
	if rep.Traffic == nil || len(rep.Traffic.Conns) != 2 {
		t.Fatalf("timed-out run lost traffic snapshot: %+v", rep.Traffic)
	}
	if rep.Traffic.Conns[1].Statuses["OK"] != 1 {
		t.Fatalf("conn 1 statuses = %v, want the finished message", rep.Traffic.Conns[1].Statuses)
	}
	if rep.Traffic.Conns[0].Statuses["OK"] != 0 {
		t.Fatalf("black-holed conn 0 completed: %v", rep.Traffic.Conns[0].Statuses)
	}

	// NIC counters were still snapshotted.
	if rep.RequesterCounters[rnic.CtrTxRoCEPackets] == 0 {
		t.Fatal("requester counters empty on timeout")
	}

	// Telemetry survived the truncation.
	if rep.Metrics == nil {
		t.Fatal("no metrics snapshot on timeout")
	}
	if counterValue(rep.Metrics, "nic.tx_packets") == 0 {
		t.Fatal("nic.tx_packets counter not collected")
	}
	if h := hist(rep.Metrics, "nic.tx_gap_ns"); h == nil || h.Count == 0 {
		t.Fatal("tx gap histogram not collected")
	}
	if len(rep.Events) == 0 {
		t.Fatal("no probe events on timeout")
	}
	// The injected drops show up as probe hits even though the run never
	// finished.
	if counterValue(rep.Metrics, "inject.drops") == 0 {
		t.Fatal("inject.drops counter not collected")
	}
}

func TestTelemetryIsDeterministicAndObserveOnly(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.Events = []config.Event{
		{QPN: 1, PSN: 4, Type: "ecn", Iter: 1},
		{QPN: 2, PSN: 5, Type: "drop", Iter: 1},
	}
	opts := DefaultOptions()
	opts.Telemetry = true

	runOnce := func() (*Report, []byte, []byte) {
		rep, err := Run(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := rep.WriteArtifacts(dir); err != nil {
			t.Fatal(err)
		}
		mjs, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
		if err != nil {
			t.Fatal(err)
		}
		tjs, err := os.ReadFile(filepath.Join(dir, "timeline.json"))
		if err != nil {
			t.Fatal(err)
		}
		return rep, mjs, tjs
	}

	r1, m1, t1 := runOnce()
	r2, m2, t2 := runOnce()
	if string(m1) != string(m2) {
		t.Fatal("same-seed runs produced different metrics.json bytes")
	}
	if string(t1) != string(t2) {
		t.Fatal("same-seed runs produced different timeline bytes")
	}

	// Observe-only: the simulated history matches a telemetry-free run
	// exactly.
	bare, err := Run(cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bare.DurationNs != r1.DurationNs {
		t.Fatalf("telemetry changed the run: %v vs %v", bare.DurationNs, r1.DurationNs)
	}
	if len(bare.Trace.Entries) != len(r1.Trace.Entries) {
		t.Fatal("telemetry changed the trace")
	}
	if bare.Metrics != nil || bare.Events != nil {
		t.Fatal("telemetry collected without opting in")
	}
	if hist(r2.Metrics, "retrans.nack_gen_ns") == nil {
		t.Fatal("expected NACK generation histogram from the drop event")
	}
	if counterValue(r2.Metrics, "cnp.sent") == 0 {
		t.Fatal("expected CNPs from the ECN event")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := baseCfg()
	cfg.Requester.NIC.Type = "cx9"
	if _, err := Run(cfg, DefaultOptions()); err == nil {
		t.Fatal("unknown NIC model accepted")
	}
	cfg = baseCfg()
	cfg.Traffic.NumConnections = 0
	if _, err := Run(cfg, DefaultOptions()); err == nil {
		t.Fatal("invalid traffic config accepted")
	}
}

func TestWriteArtifacts(t *testing.T) {
	rep := run(t, baseCfg())
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 {
		t.Fatal("empty report.json")
	}
	f, err := os.Open(filepath.Join(dir, "trace.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pkts, err := trace.ReadPcap(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(rep.Trace.Entries) {
		t.Fatalf("pcap has %d packets, trace has %d", len(pkts), len(rep.Trace.Entries))
	}
}

// TestWriteArtifactsNamesTheFileItCannotCreate: every artifact goes
// through one create/render/close helper, so a path that cannot be
// created must fail the call with an error naming that file.
func TestWriteArtifactsNamesTheFileItCannotCreate(t *testing.T) {
	rep, err := Run(baseCfg(), allObservers())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Artifacts() {
		name := a.Name
		dir := t.TempDir()
		// A directory squatting on the artifact's name makes os.Create fail.
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		err := rep.WriteArtifacts(dir)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s uncreatable: WriteArtifacts error = %v, want one naming the file", name, err)
		}
	}
}

// TestWriteArtifactPlacesOneTableEntry: the single-artifact form the
// CLI's -timeline/-metrics use writes the same bytes WriteArtifacts
// does, and refuses a name the run did not produce.
func TestWriteArtifactPlacesOneTableEntry(t *testing.T) {
	opts := DefaultOptions()
	opts.Telemetry = true
	rep, err := Run(baseCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricsName, TimelineName} {
		path := filepath.Join(t.TempDir(), "elsewhere.json")
		if err := rep.WriteArtifact(name, path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("WriteArtifact(%s) differs from the file WriteArtifacts wrote", name)
		}
	}
	// Lineage was off: the run has no summary.json to place.
	if err := rep.WriteArtifact(SummaryName, filepath.Join(dir, "s.json")); err == nil {
		t.Error("WriteArtifact wrote an artifact the run did not produce")
	}
}

func TestSwitchCountersConsistentWithNICs(t *testing.T) {
	rep := run(t, baseCfg())
	txReq := rep.RequesterCounters[rnic.CtrTxRoCEPackets]
	txResp := rep.ResponderCounters[rnic.CtrTxRoCEPackets]
	if rep.SwitchTotals.RxRoCE != txReq+txResp {
		t.Fatalf("switch RxRoCE %d != NIC tx sum %d", rep.SwitchTotals.RxRoCE, txReq+txResp)
	}
}

func TestTimestampsInTraceAreMonotonicPerSeq(t *testing.T) {
	rep := run(t, baseCfg())
	for i := 1; i < len(rep.Trace.Entries); i++ {
		if rep.Trace.Entries[i].Meta().Timestamp < rep.Trace.Entries[i-1].Meta().Timestamp {
			t.Fatal("mirror timestamps not monotone in sequence order")
		}
	}
}

func TestDelayEventInflatesMCT(t *testing.T) {
	// §7 future-work extension: quantitative delay injection. Delaying
	// one mid-message packet by 200µs stretches that message's MCT by
	// roughly the same amount without any retransmission.
	base := baseCfg()
	base.Traffic.NumConnections = 1
	base.Traffic.NumMsgsPerQP = 1
	clean := run(t, base)

	// Delaying the LAST packet measures the delay cleanly: nothing
	// follows it, so no NAK can short-circuit the wait.
	cfg := base
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 10, Type: "delay", Iter: 1, DelayUs: 200}}
	delayed := run(t, cfg)

	extra := delayed.Traffic.AvgMCT() - clean.Traffic.AvgMCT()
	if extra < 180*sim.Microsecond || extra > 220*sim.Microsecond {
		t.Fatalf("delay event added %v to MCT, want ≈ 200µs", extra)
	}
	if got := delayed.RequesterCounters[rnic.CtrRetransmits]; got != 0 {
		t.Fatalf("tail delay below the RTO must not retransmit (got %d)", got)
	}
	if len(entries(delayed.Trace, marked(packet.EventDelay))) != 1 {
		t.Fatal("delay event missing from trace")
	}

	// Delaying a MIDDLE packet, by contrast, races Go-back-N: the
	// receiver NAKs the gap and the requester retransmits — recovery is
	// far faster than the injected delay.
	cfg = base
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "delay", Iter: 1, DelayUs: 200}}
	mid := run(t, cfg)
	if got := mid.RequesterCounters[rnic.CtrRetransmits]; got == 0 {
		t.Fatal("mid-message delay should trigger spurious go-back-n retransmission")
	}
	if midExtra := mid.Traffic.AvgMCT() - clean.Traffic.AvgMCT(); midExtra > 100*sim.Microsecond {
		t.Fatalf("GBN recovery (%v extra) should beat the 200µs delay", midExtra)
	}
}

func TestReorderEventTriggersSpuriousRetransmission(t *testing.T) {
	// §7 future-work extension: packet reordering. A Go-back-N receiver
	// treats a reordered packet as loss: it NAKs and discards, forcing a
	// spurious retransmission — the transport behaviour such an event
	// exists to expose.
	cfg := baseCfg()
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 1
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "reorder", Iter: 1, Offset: 1}}
	rep := run(t, cfg)
	for _, c := range rep.Traffic.Conns {
		if c.Statuses["OK"] != 1 {
			t.Fatalf("statuses = %v", c.Statuses)
		}
	}
	if got := rep.ResponderCounters[rnic.CtrOutOfSequence]; got == 0 {
		t.Fatal("reorder did not register as out-of-sequence at the responder")
	}
	if got := rep.RequesterCounters[rnic.CtrRetransmits]; got == 0 {
		t.Fatal("reorder did not trigger go-back-n retransmission")
	}
	if len(entries(rep.Trace, marked(packet.EventReorder))) != 1 {
		t.Fatal("reorder event missing from trace")
	}
	if !rep.IntegrityOK {
		t.Fatalf("integrity: %s", rep.IntegrityDetail)
	}
}

func TestGBNLogicCleanUnderDelayAndReorder(t *testing.T) {
	// The FSM checker must not flag correct Go-back-N behaviour when the
	// network itself (not the NIC) delays or reorders packets: the
	// receiver's NAK-once-per-gap and restart-at-gap rules still hold.
	for _, evs := range [][]config.Event{
		{{QPN: 1, PSN: 4, Type: "reorder", Iter: 1, Offset: 2}},
		{{QPN: 1, PSN: 3, Type: "delay", Iter: 1, DelayUs: 50}},
		{
			{QPN: 1, PSN: 3, Type: "delay", Iter: 1, DelayUs: 30},
			{QPN: 1, PSN: 7, Type: "reorder", Iter: 1, Offset: 1},
		},
	} {
		cfg := baseCfg()
		cfg.Traffic.NumConnections = 1
		cfg.Traffic.NumMsgsPerQP = 2
		cfg.Traffic.Events = evs
		rep := run(t, cfg)
		gbn := analyzer.CheckGoBackN(rep.Trace)
		if !gbn.OK() {
			t.Errorf("events %v: violations %v", evs, gbn.Violations)
		}
		for _, c := range rep.Traffic.Conns {
			if c.Statuses["OK"] != 2 {
				t.Errorf("events %v: statuses %v", evs, c.Statuses)
			}
		}
	}
}
