package analyzer_test

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// --- synthetic trace construction ---

type traceBuilder struct {
	entries []trace.Entry
	seq     uint64
	now     int64
}

func (b *traceBuilder) add(p packet.Packet, ev packet.EventType) *traceBuilder {
	b.seq++
	b.now += 1000
	b.entries = append(b.entries, trace.Entry{
		Meta:    packet.MirrorMeta{Seq: b.seq, Event: ev, Timestamp: b.now},
		Pkt:     p,
		OrigLen: 1024,
	})
	return b
}

func (b *traceBuilder) build() *trace.Trace { return &trace.Trace{Entries: b.entries} }

var (
	tIPA = netip.MustParseAddr("10.0.0.1")
	tIPB = netip.MustParseAddr("10.0.0.2")
)

func writePkt(psn uint32, op packet.Opcode) packet.Packet {
	return packet.Packet{
		IP:  packet.IPv4{Src: tIPA, Dst: tIPB, Protocol: packet.ProtoUDP},
		UDP: packet.UDP{DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: op, DestQP: 0x22, PSN: psn},
	}
}

func nakPkt(psn uint32) packet.Packet {
	return packet.Packet{
		IP:   packet.IPv4{Src: tIPB, Dst: tIPA, Protocol: packet.ProtoUDP},
		UDP:  packet.UDP{DstPort: packet.RoCEv2Port},
		BTH:  packet.BTH{Opcode: packet.OpAcknowledge, DestQP: 0x11, PSN: psn},
		AETH: packet.AETH{Syndrome: packet.NakPSNSeqError},
	}
}

func TestGBNCleanSequencePasses(t *testing.T) {
	b := &traceBuilder{}
	for psn := uint32(100); psn < 110; psn++ {
		b.add(writePkt(psn, packet.OpWriteMiddle), packet.EventNone)
	}
	rep := analyzer.CheckGoBackN(b.build())
	if !rep.OK() {
		t.Fatalf("violations on clean sequence: %v", rep.Violations)
	}
	if rep.Events != 0 {
		t.Fatalf("events = %d on clean sequence", rep.Events)
	}
}

func TestGBNCorrectRecoveryPasses(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop) // injector drops
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone) // creates gap
	b.add(nakPkt(101), packet.EventNone)                         // correct NAK
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventNone) // retransmit from gap
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone)
	b.add(writePkt(103, packet.OpWriteLast), packet.EventNone)
	rep := analyzer.CheckGoBackN(b.build())
	if !rep.OK() {
		t.Fatalf("correct recovery flagged: %v", rep.Violations)
	}
	if rep.Events != 1 {
		t.Fatalf("events = %d, want 1", rep.Events)
	}
}

func TestGBNFlagsWrongNakPSN(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone)
	b.add(nakPkt(102), packet.EventNone) // wrong: first missing is 101
	rep := analyzer.CheckGoBackN(b.build())
	if rep.OK() {
		t.Fatal("wrong NAK PSN not flagged")
	}
}

func TestGBNFlagsSpuriousNak(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventNone)
	b.add(nakPkt(101), packet.EventNone) // no gap exists
	rep := analyzer.CheckGoBackN(b.build())
	if rep.OK() {
		t.Fatal("spurious NAK not flagged")
	}
}

func TestGBNFlagsRepeatedNak(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventDrop)
	b.add(writePkt(102, packet.OpWriteMiddle), packet.EventNone)
	b.add(nakPkt(101), packet.EventNone)
	b.add(nakPkt(101), packet.EventNone) // spec forbids repeating
	rep := analyzer.CheckGoBackN(b.build())
	if rep.OK() {
		t.Fatal("repeated NAK not flagged")
	}
}

func TestGBNDuplicateDataAllowed(t *testing.T) {
	b := &traceBuilder{}
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone)
	b.add(writePkt(101, packet.OpWriteMiddle), packet.EventNone)
	b.add(writePkt(100, packet.OpWriteFirst), packet.EventNone) // duplicate
	rep := analyzer.CheckGoBackN(b.build())
	if !rep.OK() {
		t.Fatalf("duplicate data flagged: %v", rep.Violations)
	}
}

// --- integration with real runs ---

func e2e(t *testing.T, mutate func(*config.Test)) *orchestrator.Report {
	t.Helper()
	cfg := config.Default()
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 3
	cfg.Traffic.MessageSize = 10240
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut {
		t.Fatal("timed out")
	}
	if !rep.IntegrityOK {
		t.Fatalf("integrity: %s", rep.IntegrityDetail)
	}
	return rep
}

func TestGBNPassesOnRealRunsAllProfiles(t *testing.T) {
	// §6.1: all four RNICs pass the FSM-based retransmission logic
	// check under aggressive drop patterns.
	for _, model := range rnic.ModelNames() {
		for _, verb := range []string{"write", "read", "send"} {
			rep := e2e(t, func(c *config.Test) {
				c.Requester.NIC.Type = model
				c.Responder.NIC.Type = model
				c.Traffic.Verb = verb
				c.Traffic.NumMsgsPerQP = 5
				c.Traffic.Events = []config.Event{
					{QPN: 1, PSN: 3, Type: "drop", Iter: 1},
					{QPN: 1, PSN: 7, Type: "drop", Iter: 1},
					{QPN: 1, PSN: 7, Type: "drop", Iter: 2}, // drop the retransmission too
					{QPN: 1, PSN: 20, Type: "drop", Iter: 1},
				}
			})
			gbn := analyzer.CheckGoBackN(rep.Trace)
			if !gbn.OK() {
				t.Errorf("%s/%s: GBN violations: %v", model, verb, gbn.Violations)
			}
			if gbn.Events == 0 {
				t.Errorf("%s/%s: no gaps observed despite drops", model, verb)
			}
		}
	}
}

func TestRetransAnalyzerMeasuresWriteBreakdown(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Requester.NIC.Type = rnic.ModelCX5
		c.Responder.NIC.Type = rnic.ModelCX5
		c.Traffic.MessageSize = 102400
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	})
	evs := analyzer.AnalyzeRetransmissions(rep.Trace)
	if len(evs) != 1 {
		t.Fatalf("retrans events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Timeout {
		t.Fatal("mid-message drop recovered by timeout, want fast retransmit")
	}
	gen, react := ev.GenLatency(), ev.ReactLatency()
	prof := rnic.Profiles()[rnic.ModelCX5]
	// CX5's NACK generation is ~2µs; allow generous bounds around the
	// profile value plus propagation.
	if gen < prof.NACKGenWrite.Base/2 || gen > prof.NACKGenWrite.Base*5 {
		t.Errorf("gen latency = %v, profile base %v", gen, prof.NACKGenWrite.Base)
	}
	if react <= 0 || react > 50*sim.Microsecond {
		t.Errorf("react latency = %v", react)
	}
	if ev.TotalLatency() < gen+react {
		t.Error("total < gen+react")
	}
}

func TestRetransAnalyzerReadPath(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Requester.NIC.Type = rnic.ModelE810
		c.Responder.NIC.Type = rnic.ModelE810
		c.Traffic.Verb = "read"
		c.Traffic.MessageSize = 102400
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	})
	evs := analyzer.AnalyzeRetransmissions(rep.Trace)
	if len(evs) != 1 {
		t.Fatalf("retrans events = %d", len(evs))
	}
	gen := evs[0].GenLatency()
	// E810's read slow path is ~83 ms (§6.1) — orders of magnitude above
	// its ~10 µs write path.
	if gen < 50*sim.Millisecond {
		t.Errorf("E810 read gen latency = %v, want ≫ 50ms slow path", gen)
	}
}

func TestRetransAnalyzerTailDropTimeout(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Traffic.MessageSize = 10240
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.MinRetransmitTimeout = 10
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 10, Type: "drop", Iter: 1}} // last packet
	})
	evs := analyzer.AnalyzeRetransmissions(rep.Trace)
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if !evs[0].Timeout {
		t.Fatal("tail drop not classified as timeout recovery")
	}
	if evs[0].TotalLatency() < sim.Duration(4096)<<10 {
		t.Fatalf("timeout recovery latency %v below RTO", evs[0].TotalLatency())
	}
}

func TestCNPAnalyzerCountsAndOrphans(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Traffic.MessageSize = 102400
		c.Traffic.NumMsgsPerQP = 3
		c.Responder.RoCE.MinTimeBetweenCNPs = 4
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: 10}}
	})
	cr := analyzer.AnalyzeCNP(rep.Trace)
	if cr.TotalCNPs() == 0 {
		t.Fatal("no CNPs found")
	}
	if cr.Orphans != 0 {
		t.Fatalf("%d orphan CNPs", cr.Orphans)
	}
	respIP := rep.Config.Responder.NIC.IPList[0].String()
	if cr.CNPs[respIP] == 0 {
		t.Fatal("CNPs not attributed to the responder")
	}
	if cr.ECNMarked[respIP] == 0 {
		t.Fatal("CE-marked arrivals not attributed to the responder")
	}
	// Configured 4µs minimum: per-QP gaps respect it.
	if cr.MinIntervalPerQP != 0 && cr.MinIntervalPerQP < 4*sim.Microsecond {
		t.Fatalf("min CNP gap %v below the 4µs limit", cr.MinIntervalPerQP)
	}
}

func TestCNPAnalyzerDetectsOrphan(t *testing.T) {
	b := &traceBuilder{}
	cnp := packet.Packet{
		IP:  packet.IPv4{Src: tIPB, Dst: tIPA, Protocol: packet.ProtoUDP},
		BTH: packet.BTH{Opcode: packet.OpCNP, DestQP: 0x11},
	}
	b.add(cnp, packet.EventNone)
	cr := analyzer.AnalyzeCNP(b.build())
	if cr.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", cr.Orphans)
	}
}

func TestCounterAnalyzerCleanRun(t *testing.T) {
	rep := e2e(t, nil)
	inc := analyzer.CheckCounters(rep.Trace,
		hostView("requester", rep.Config.Requester, rep.RequesterCounters),
		hostView("responder", rep.Config.Responder, rep.ResponderCounters),
	)
	if len(inc) != 0 {
		t.Fatalf("clean run reported inconsistencies: %v", inc)
	}
}

func TestCounterAnalyzerFindsE810CnpBug(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Requester.NIC.Type = rnic.ModelE810
		c.Responder.NIC.Type = rnic.ModelE810
		c.Traffic.MessageSize = 102400
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "ecn", Iter: 1, Every: 5}}
	})
	inc := analyzer.CheckCounters(rep.Trace,
		hostView("responder", rep.Config.Responder, rep.ResponderCounters),
	)
	found := false
	for _, i := range inc {
		if i.Counter == rnic.CtrNpCnpSent && i.Counted == 0 && i.Observed > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("E810 cnpSent bug not detected: %v", inc)
	}
}

func TestCounterAnalyzerFindsCX4ImpliedNakBug(t *testing.T) {
	rep := e2e(t, func(c *config.Test) {
		c.Requester.NIC.Type = rnic.ModelCX4
		c.Responder.NIC.Type = rnic.ModelCX4
		c.Traffic.Verb = "read"
		c.Traffic.MessageSize = 102400
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	})
	inc := analyzer.CheckCounters(rep.Trace,
		hostView("requester", rep.Config.Requester, rep.RequesterCounters),
	)
	found := false
	for _, i := range inc {
		if i.Counter == rnic.CtrImpliedNakSeq && i.Counted == 0 && i.Observed > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("CX4 implied_nak_seq_err bug not detected: %v", inc)
	}
}

func TestCounterAnalyzerCX5ReadIsClean(t *testing.T) {
	// The same read-loss scenario on CX5 must NOT be flagged — its
	// counter moves correctly.
	rep := e2e(t, func(c *config.Test) {
		c.Requester.NIC.Type = rnic.ModelCX5
		c.Responder.NIC.Type = rnic.ModelCX5
		c.Traffic.Verb = "read"
		c.Traffic.MessageSize = 102400
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	})
	inc := analyzer.CheckCounters(rep.Trace,
		hostView("requester", rep.Config.Requester, rep.RequesterCounters),
	)
	for _, i := range inc {
		if i.Counter == rnic.CtrImpliedNakSeq {
			t.Fatalf("CX5 falsely flagged: %v", i)
		}
	}
}

func TestStats(t *testing.T) {
	st := analyzer.Stats([]sim.Duration{0, 10, 20, 30})
	if st.N != 3 || st.Min != 10 || st.Max != 30 || st.Mean != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if z := analyzer.Stats(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

func hostView(name string, h config.Host, ctr map[string]uint64) analyzer.HostView {
	v := analyzer.HostView{Name: name, Counters: ctr}
	for _, ip := range h.NIC.IPList {
		v.IPs = append(v.IPs, ip.String())
	}
	return v
}

func TestReconstructITERMatchesFigure3(t *testing.T) {
	// The worked example of Figure 3: PSNs 1 2 3 4 2 3 4 3 4 yield
	// ITERs  1 1 1 1 2 2 2 3 3.
	b := &traceBuilder{}
	for _, psn := range []uint32{1, 2, 3, 4, 2, 3, 4, 3, 4} {
		b.add(writePkt(psn, packet.OpWriteMiddle), packet.EventNone)
	}
	b.add(nakPkt(2), packet.EventNone) // non-data: ITER 0
	iters := analyzer.ReconstructITER(b.build())
	want := []uint32{1, 1, 1, 1, 2, 2, 2, 3, 3, 0}
	for i := range want {
		if iters[i] != want[i] {
			t.Fatalf("iters = %v, want %v", iters, want)
		}
	}
}

func TestRetransmissionStats(t *testing.T) {
	b := &traceBuilder{}
	for _, psn := range []uint32{1, 2, 3, 2, 3} {
		b.add(writePkt(psn, packet.OpWriteMiddle), packet.EventNone)
	}
	stats := analyzer.RetransmissionStats(b.build())
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.DataPackets != 5 || st.Retransmitted != 2 || st.MaxIter != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FirstRetrans == 0 {
		t.Fatal("first retransmission timestamp missing")
	}
}

func TestReconstructITERMatchesInjectorOnRealRun(t *testing.T) {
	// The offline reconstruction and the switch's in-band ITER must
	// agree: a rule targeting iter 2 fires exactly on the packet the
	// offline pass labels round 2.
	rep := e2e(t, func(c *config.Test) {
		c.Traffic.NumMsgsPerQP = 1
		c.Traffic.Events = []config.Event{
			{QPN: 1, PSN: 5, Type: "drop", Iter: 1},
			{QPN: 1, PSN: 5, Type: "ecn", Iter: 2}, // marks the retransmission
		}
	})
	iters := analyzer.ReconstructITER(rep.Trace)
	for i := range rep.Trace.Entries {
		e := &rep.Trace.Entries[i]
		if e.Meta.Event == packet.EventECN {
			if iters[i] != 2 {
				t.Fatalf("iter-2 rule fired on a packet offline reconstruction labels round %d", iters[i])
			}
			return
		}
	}
	t.Fatal("iter-2 ECN rule never fired")
}

func TestVerdictLine(t *testing.T) {
	for _, tc := range []struct {
		v     analyzer.Verdict
		width int
		want  string
	}{
		{analyzer.Verdict{Analyzer: "gbn", Pass: true, Reason: "ok"}, 8, "gbn      PASS  ok"},
		{analyzer.Verdict{Analyzer: "retrans", Pass: false, Reason: "slow", Chains: []uint64{7, 10}}, 8, "retrans  FAIL  slow  [lineage 7,10]"},
		{analyzer.Verdict{Analyzer: "int-coverage", Pass: true, Reason: "joined", Chains: []uint64{3}}, 12, "int-coverage PASS  joined  [lineage 3]"},
	} {
		if got := tc.v.Line(tc.width); got != tc.want {
			t.Errorf("Line(%d) = %q, want %q", tc.width, got, tc.want)
		}
	}
}
