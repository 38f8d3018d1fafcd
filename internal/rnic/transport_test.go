package rnic

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

func TestWriteSingleMessageCompletes(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 4096, mr)
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	c := comps[0]
	if c.Status != StatusOK || c.Bytes != 4096 {
		t.Fatalf("completion = %+v", c)
	}
	if c.CompletedAt <= c.PostedAt {
		t.Fatal("completion time not after post time")
	}
}

func TestWriteSegmentationOpcodes(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	var ops []packet.Opcode
	var lens []int
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			ops = append(ops, pkt.BTH.Opcode)
			lens = append(lens, len(pkt.Payload))
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 1, 2500, mr)

	wantOps := []packet.Opcode{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLast}
	wantLens := []int{1024, 1024, 452}
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	for i := range wantOps {
		if ops[i] != wantOps[i] || lens[i] != wantLens[i] {
			t.Fatalf("packet %d = %v/%d, want %v/%d", i, ops[i], lens[i], wantOps[i], wantLens[i])
		}
	}
}

func TestWritePSNsAreConsecutiveFromIPSN(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	var psns []uint32
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			psns = append(psns, pkt.BTH.PSN)
		}
		return relayPass
	}
	qa, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 2, 3072, mr)
	if len(psns) != 6 {
		t.Fatalf("saw %d data packets, want 6", len(psns))
	}
	for i, psn := range psns {
		if want := psnAdd(qa.IPSN, uint32(i)); psn != want {
			t.Fatalf("packet %d PSN = %d, want %d", i, psn, want)
		}
	}
}

func TestSendRecvDeliversToReceiveQueue(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	var got []Completion
	p.bQP.PostRecv(RecvRequest{WRID: 77, OnComplete: func(c Completion) { got = append(got, c) }})
	sent := false
	p.aQP.PostSend(WorkRequest{WRID: 1, Verb: VerbSend, Length: 2048,
		OnComplete: func(Completion) { sent = true }})
	p.s.Run()
	if !sent {
		t.Fatal("send never completed")
	}
	if len(got) != 1 || got[0].WRID != 77 || got[0].Bytes != 2048 {
		t.Fatalf("recv completions = %+v", got)
	}
}

func TestSendWithoutRecvTriggersRNRAndRecovers(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	done := false
	p.aQP.PostSend(WorkRequest{WRID: 1, Verb: VerbSend, Length: 512,
		OnComplete: func(c Completion) { done = c.Status == StatusOK }})
	// Post the receive only after the RNR NAK has had time to fire.
	p.s.After(50*sim.Microsecond, func() {
		p.bQP.PostRecv(RecvRequest{WRID: 2})
	})
	p.s.Run()
	if !done {
		t.Fatal("send did not recover after RNR")
	}
}

func TestReadCompletes(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbRead, 3, 10240, mr)
	if len(comps) != 3 {
		t.Fatalf("got %d completions, want 3", len(comps))
	}
	for _, c := range comps {
		if c.Status != StatusOK || c.Bytes != 10240 {
			t.Fatalf("completion = %+v", c)
		}
	}
}

func TestReadResponseOpcodesAndAETH(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	var ops []packet.Opcode
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if !fromA && pkt.BTH.Opcode.IsReadResponse() {
			ops = append(ops, pkt.BTH.Opcode)
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbRead, 1, 3000, mr)
	want := []packet.Opcode{packet.OpReadResponseFirst, packet.OpReadResponseMiddle, packet.OpReadResponseLast}
	if len(ops) != 3 {
		t.Fatalf("responses = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("responses = %v, want %v", ops, want)
		}
	}
}

func TestReadRequestReservesPSNRange(t *testing.T) {
	// Per IB spec, a read request consumes one PSN per response packet;
	// the next request must start beyond the reserved range.
	p := newPair(t, defaultPairOpts())
	var reqPSNs []uint32
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsReadRequest() {
			reqPSNs = append(reqPSNs, pkt.BTH.PSN)
		}
		return relayPass
	}
	qa, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbRead, 2, 5120, mr) // 5 packets each
	if len(reqPSNs) != 2 {
		t.Fatalf("saw %d read requests, want 2", len(reqPSNs))
	}
	if reqPSNs[0] != qa.IPSN || reqPSNs[1] != psnAdd(qa.IPSN, 5) {
		t.Fatalf("request PSNs = %v, IPSN = %d", reqPSNs, qa.IPSN)
	}
}

func TestWriteDropTriggersGoBackN(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	dropped := false
	var sawNak bool
	var retransmitted []uint32
	var dropPSN uint32
	var haveDrop bool
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			// Drop the 5th data packet (index 4) once.
			if !haveDrop {
				if pkt.BTH.Opcode.IsFirst() {
					dropPSN = psnAdd(pkt.BTH.PSN, 4)
					haveDrop = true
				}
			}
			if haveDrop && pkt.BTH.PSN == dropPSN {
				if !dropped {
					dropped = true
					return relayDrop
				}
				retransmitted = append(retransmitted, pkt.BTH.PSN)
			}
		}
		if !fromA && pkt.BTH.Opcode.IsAck() && pkt.AETH.IsNak() {
			sawNak = true
			if pkt.AETH.Syndrome != packet.NakPSNSeqError {
				t.Errorf("NAK syndrome = %#x, want PSN sequence error", pkt.AETH.Syndrome)
			}
			if pkt.BTH.PSN != dropPSN {
				t.Errorf("NAK PSN = %d, want first missing %d", pkt.BTH.PSN, dropPSN)
			}
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 10240, mr)
	if len(comps) != 1 || comps[0].Status != StatusOK {
		t.Fatalf("completions = %+v", comps)
	}
	if !dropped || !sawNak {
		t.Fatalf("dropped=%v sawNak=%v", dropped, sawNak)
	}
	if len(retransmitted) == 0 {
		t.Fatal("dropped PSN never retransmitted")
	}
	if got := p.b.Counters.Get(CtrOutOfSequence); got == 0 {
		t.Error("responder out_of_sequence counter not incremented")
	}
	if got := p.b.Counters.Get(CtrPacketSeqErr); got != 1 {
		t.Errorf("packet_seq_err = %d, want 1", got)
	}
	if got := p.a.Counters.Get(CtrRetransmits); got == 0 {
		t.Error("requester retransmit counter not incremented")
	}
}

func TestGoBackNResendsEverythingAfterLoss(t *testing.T) {
	// Go-back-N retransmits the lost packet and everything after it.
	p := newPair(t, defaultPairOpts())
	var order []uint32
	var first uint32
	haveFirst := false
	droppedOnce := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			if !haveFirst {
				first = pkt.BTH.PSN
				haveFirst = true
			}
			idx := psnSub(pkt.BTH.PSN, first)
			if idx == 2 && !droppedOnce {
				droppedOnce = true
				return relayDrop
			}
			order = append(order, idx)
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 8192, mr) // PSN idx 0..7
	if comps[0].Status != StatusOK {
		t.Fatalf("status = %v", comps[0].Status)
	}
	// Expect 0,1,(2 dropped),3..7 then retransmission 2,3,..7.
	// Find the position where 2 finally appears; everything after must be
	// the consecutive tail.
	seen2 := -1
	for i, idx := range order {
		if idx == 2 {
			seen2 = i
			break
		}
	}
	if seen2 == -1 {
		t.Fatalf("PSN index 2 never delivered: %v", order)
	}
	for i := seen2; i < len(order); i++ {
		if order[i] != uint32(2+i-seen2) {
			t.Fatalf("retransmission tail not contiguous: %v", order)
		}
	}
	if order[len(order)-1] != 7 {
		t.Fatalf("tail not fully retransmitted: %v", order)
	}
}

func TestReadDropTriggersImpliedNakReRead(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	var reReads []packet.RETH
	var firstReq packet.RETH
	nReq := 0
	droppedOnce := false
	var respStart uint32
	haveStart := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsReadRequest() {
			nReq++
			if nReq == 1 {
				firstReq = pkt.RETH
			} else {
				reReads = append(reReads, pkt.RETH)
			}
		}
		if !fromA && pkt.BTH.Opcode.IsReadResponse() {
			if !haveStart {
				respStart = pkt.BTH.PSN
				haveStart = true
			}
			if psnSub(pkt.BTH.PSN, respStart) == 3 && !droppedOnce {
				droppedOnce = true
				return relayDrop
			}
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbRead, 1, 10240, mr)
	if comps[0].Status != StatusOK {
		t.Fatalf("status = %v", comps[0].Status)
	}
	if len(reReads) != 1 {
		t.Fatalf("saw %d re-read requests, want 1", len(reReads))
	}
	// The re-read must target the first missing byte: offset 3 MTUs in.
	if got, want := reReads[0].VA, firstReq.VA+3*1024; got != want {
		t.Errorf("re-read VA = %#x, want %#x", got, want)
	}
	if got, want := reReads[0].DMALen, firstReq.DMALen-3*1024; got != want {
		t.Errorf("re-read DMALen = %d, want %d", got, want)
	}
	if got := p.a.Counters.Get(CtrImpliedNakSeq); got != 1 {
		t.Errorf("implied_nak_seq_err = %d, want 1", got)
	}
}

func TestTailDropRecoversViaTimeout(t *testing.T) {
	// Dropping the last packet of the only message leaves the responder
	// with no gap to NAK; only the requester's RTO can recover.
	o := defaultPairOpts()
	o.timeoutExp = 10 // 4.096 µs · 2^10 ≈ 4.2 ms
	p := newPair(t, o)
	droppedOnce := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && (pkt.BTH.Opcode.IsLast() || pkt.BTH.Opcode.IsOnly()) && !droppedOnce {
			droppedOnce = true
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 4096, mr)
	if comps[0].Status != StatusOK {
		t.Fatalf("status = %v", comps[0].Status)
	}
	if got := p.a.Counters.Get(CtrLocalAckTimeout); got != 1 {
		t.Errorf("local_ack_timeout_err = %d, want 1", got)
	}
	// Completion must come after at least one RTO.
	rto := sim.Duration(4096) << 10
	if comps[0].CompletedAt.Sub(comps[0].PostedAt) < rto {
		t.Errorf("completed in %v, faster than the %v RTO", comps[0].CompletedAt.Sub(comps[0].PostedAt), rto)
	}
}

func TestRetryExceededMovesQPToError(t *testing.T) {
	o := defaultPairOpts()
	o.timeoutExp = 8
	o.retryCnt = 2
	p := newPair(t, o)
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			return relayDrop // black-hole all data
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 8, 2)
	comps := runTransfer(t, p, VerbWrite, 2, 1024, mr)
	if len(comps) != 2 {
		t.Fatalf("got %d completions, want 2 (error + flush)", len(comps))
	}
	if comps[0].Status != StatusRetryExceeded {
		t.Errorf("first completion = %v, want RETRY_EXC_ERR", comps[0].Status)
	}
	if comps[1].Status != StatusFlushed {
		t.Errorf("second completion = %v, want FLUSHED", comps[1].Status)
	}
	if !p.aQP.Errored() {
		t.Error("QP not in error state")
	}
	if got := p.a.Counters.Get(CtrLocalAckTimeout); got != 3 {
		t.Errorf("timeouts = %d, want 3 (retry_cnt+1)", got)
	}
	if err := p.aQP.PostSend(WorkRequest{Verb: VerbWrite, Length: 10}); err == nil {
		t.Error("PostSend on errored QP succeeded")
	}
}

func TestSpecTimeoutConstantAcrossRetries(t *testing.T) {
	// With adaptive retransmission off, the IB spec mandates a constant
	// RTO of 4.096 µs · 2^timeout for every retry (§6.3).
	o := defaultPairOpts()
	o.timeoutExp = 10
	p := newPair(t, o)
	var dataTimes []sim.Time
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsWrite() {
			dataTimes = append(dataTimes, p.s.Now())
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 4)
	runTransfer(t, p, VerbWrite, 1, 1024, mr)
	if len(dataTimes) < 4 {
		t.Fatalf("saw %d transmissions, want >= 4", len(dataTimes))
	}
	rto := (sim.Duration(4096) << 10).Microseconds()
	for i := 1; i < len(dataTimes); i++ {
		gap := dataTimes[i].Sub(dataTimes[i-1]).Microseconds()
		if gap < rto*0.99 || gap > rto*1.15 {
			t.Errorf("retry %d gap = %.1fµs, want ≈ RTO %.1fµs", i, gap, rto)
		}
	}
}

func TestCorruptedPacketDroppedByICRC(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	corrupted := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode == packet.OpWriteMiddle && !corrupted {
			corrupted = true
			return relayCorrupt
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 4096, mr)
	if comps[0].Status != StatusOK {
		t.Fatalf("status = %v", comps[0].Status)
	}
	if got := p.b.Counters.Get(CtrICRCErrors); got != 1 {
		t.Errorf("icrc_error_packets = %d, want 1", got)
	}
	// The corrupted packet acts like a loss: Go-back-N recovers it.
	if got := p.a.Counters.Get(CtrRetransmits); got == 0 {
		t.Error("no retransmission after corruption")
	}
}

func TestWriteInvalidRKeyFails(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	var st CompletionStatus = -1
	p.aQP.PostSend(WorkRequest{
		Verb: VerbWrite, Length: 1024, RemoteAddr: 0xdead, RKey: 0xbad,
		OnComplete: func(c Completion) { st = c.Status },
	})
	p.s.Run()
	if st != StatusRemoteAccessError {
		t.Fatalf("status = %v, want REM_ACCESS_ERR", st)
	}
}

func TestDuplicateDataReAcked(t *testing.T) {
	// A duplicated last packet must elicit a duplicate ACK, not confusion.
	p := newPair(t, defaultPairOpts())
	duplicated := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsOnly() && !duplicated {
			duplicated = true
			dup := append([]byte(nil), w...)
			p.relay.toB.Send(dup) // deliver an extra copy
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	comps := runTransfer(t, p, VerbWrite, 1, 512, mr)
	if comps[0].Status != StatusOK {
		t.Fatalf("status = %v", comps[0].Status)
	}
	if got := p.b.Counters.Get(CtrDuplicateReq); got != 1 {
		t.Errorf("duplicate_request = %d, want 1", got)
	}
}

func TestMultiGIDQPsUseConfiguredSource(t *testing.T) {
	s := sim.New(3)
	n := New(s, Profiles()[ModelSpec], Config{
		Name: "multi", MAC: packet.MAC{2, 0, 0, 0, 0, 9},
		IPs: []netip.Addr{ip("10.0.0.5"), ip("10.0.0.15")},
	})
	qp := n.CreateQP(QPConfig{SrcIP: ip("10.0.0.15")})
	if qp.Local().IP != ip("10.0.0.15") {
		t.Fatalf("QP source IP = %v", qp.Local().IP)
	}
	qp2 := n.CreateQP(QPConfig{})
	if qp2.Local().IP != ip("10.0.0.5") {
		t.Fatalf("default QP source IP = %v", qp2.Local().IP)
	}
}

func TestQPNAndIPSNAreRandomAndUnique(t *testing.T) {
	s := sim.New(4)
	n := New(s, Profiles()[ModelSpec], Config{
		Name: "x", MAC: packet.MAC{2, 0, 0, 0, 0, 3}, IPs: []netip.Addr{ip("10.0.0.9")},
	})
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		qp := n.CreateQP(QPConfig{})
		if seen[qp.QPN] {
			t.Fatal("duplicate QPN allocated")
		}
		seen[qp.QPN] = true
		if qp.QPN > packet.PSNMask || qp.IPSN > packet.PSNMask {
			t.Fatal("QPN/IPSN exceed 24 bits")
		}
	}
}

func TestMigReqFollowsProfile(t *testing.T) {
	for _, tc := range []struct {
		model string
		want  bool
	}{{ModelCX5, true}, {ModelE810, false}} {
		o := defaultPairOpts()
		o.profA = Profiles()[tc.model]
		p := newPair(t, o)
		var got *bool
		p.relay.onForward = func(w []byte, fromA bool) relayAction {
			pkt := decode(t, w)
			if fromA && pkt.BTH.Opcode.IsData() && got == nil {
				v := pkt.BTH.MigReq
				got = &v
			}
			return relayPass
		}
		_, _, mr := p.connect(t, 1024, 10, 7)
		runTransfer(t, p, VerbWrite, 1, 1024, mr)
		if got == nil || *got != tc.want {
			t.Errorf("%s: MigReq = %v, want %v", tc.model, got, tc.want)
		}
	}
}

// Property: 24-bit PSN arithmetic is a consistent total order within a
// half window, including across wraparound.
func TestPropertyPSNArithmetic(t *testing.T) {
	f := func(a uint32, delta uint32) bool {
		a &= packet.PSNMask
		d := delta % (1 << 22) // stay within the comparison half-window
		b := psnAdd(a, d)
		if psnSub(b, a) != d {
			return false
		}
		if d == 0 {
			return !psnLT(a, b) && !psnLT(b, a)
		}
		return psnLT(a, b) && !psnLT(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 5, 2048, mr)
	txA := p.a.Counters.Get(CtrTxRoCEPackets)
	rxB := p.b.Counters.Get(CtrRxRoCEPackets)
	// 5 msgs × 2 data packets + 0 extra; B additionally transmits ACKs.
	if txA != 10 {
		t.Errorf("A tx = %d, want 10", txA)
	}
	if rxB != 10 {
		t.Errorf("B rx = %d, want 10", rxB)
	}
	if p.a.Counters.Get(CtrRxRoCEPackets) == 0 {
		t.Error("A saw no ACKs")
	}
}

func TestCounterSnapshotAndDiff(t *testing.T) {
	c := NewCounters()
	c.Inc("x")
	c.Add("y", 5)
	snap := c.Snapshot()
	c.Inc("x")
	c.Add("z", 2)
	after := c.Snapshot()
	if snap["x"] != 1 || len(snap) != 2 {
		t.Fatalf("snapshot = %v, changed by later counting", snap)
	}
	if d := map[string]uint64{"x": after["x"] - snap["x"], "y": after["y"] - snap["y"], "z": after["z"] - snap["z"]}; d["x"] != 1 || d["z"] != 2 || d["y"] != 0 || len(after) != 3 {
		t.Fatalf("diff = %v over %d counters", d, len(after))
	}
}

func TestPSNWraparoundTransfer(t *testing.T) {
	// Force the requester's initial PSN right below the 24-bit wrap and
	// verify multi-message transfers (including a loss) cross it
	// cleanly.
	p := newPair(t, defaultPairOpts())
	cfg := QPConfig{MTU: 1024, TimeoutExp: 10, RetryCnt: 7}
	qa := p.a.CreateQP(cfg)
	qb := p.b.CreateQP(cfg)
	qa.IPSN = packet.PSNMask - 5 // wraps after 6 packets
	qa.nextPSN = qa.IPSN
	qa.sndUna = qa.IPSN
	qa.sendPtr = qa.IPSN
	qa.maxSent = qa.IPSN
	qa.Connect(qb.Local())
	qb.Connect(qa.Local())
	p.aQP, p.bQP = qa, qb
	mr := p.b.RegisterMR(64 << 20)

	droppedOnce := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		// Drop one packet just past the wrap point.
		if fromA && pkt.BTH.Opcode.IsWrite() && pkt.BTH.PSN == 2 && !droppedOnce {
			droppedOnce = true
			return relayDrop
		}
		return relayPass
	}
	comps := runTransfer(t, p, VerbWrite, 3, 10240, mr) // 30 packets across the wrap
	if len(comps) != 3 {
		t.Fatalf("completions = %d", len(comps))
	}
	for i, c := range comps {
		if c.Status != StatusOK {
			t.Fatalf("message %d status = %v", i, c.Status)
		}
	}
	if !droppedOnce {
		t.Fatal("the post-wrap drop never happened")
	}
	// The responder's expected PSN wrapped into low numbers.
	if qb.ePSN >= qa.IPSN || qb.ePSN != psnAdd(qa.IPSN, 30) {
		t.Fatalf("responder ePSN = %d, want wrapped %d", qb.ePSN, psnAdd(qa.IPSN, 30))
	}
}

func TestSchedulerFlushOnQPError(t *testing.T) {
	// A fatally errored QP must not leave packets in the scheduler.
	o := defaultPairOpts()
	o.timeoutExp = 8
	o.retryCnt = 1
	p := newPair(t, o)
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsData() {
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 8, 1)
	runTransfer(t, p, VerbWrite, 3, 10240, mr)
	if !p.aQP.Errored() {
		t.Fatal("QP did not error")
	}
	if p.aQP.txq.len() != 0 {
		t.Fatalf("errored QP still holds %d queued packets", p.aQP.txq.len())
	}
	if p.s.Step() {
		t.Fatal("events still pending after error drain")
	}
}

func TestRNRRetryExceeded(t *testing.T) {
	// A responder that never posts a receive exhausts the RNR retry
	// budget and the QP errors instead of retrying forever.
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	var st CompletionStatus = -1
	p.aQP.PostSend(WorkRequest{WRID: 1, Verb: VerbSend, Length: 512,
		OnComplete: func(c Completion) { st = c.Status }})
	p.s.Run()
	if st != StatusRNRRetryExceeded {
		t.Fatalf("status = %v, want RNR_RETRY_EXC_ERR", st)
	}
	if got := p.a.Counters.Get(CtrRnrNakRetry); got != 1 {
		t.Fatalf("rnr_nak_retry_err = %d", got)
	}
	if p.s.Step() {
		t.Fatal("events still pending (RNR loop leak)")
	}
}

func TestAccessorsAndStringForms(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, _ := p.connect(t, 2048, 10, 7)
	if qa.cfg.MTU != 2048 {
		t.Fatalf("MTU = %d", qa.cfg.MTU)
	}
	if p.a.IP() != ip("10.0.0.1") || len(p.a.IPs()) != 1 {
		t.Fatalf("IP accessors wrong: %v %v", p.a.IP(), p.a.IPs())
	}
	if s := p.a.String(); s == "" {
		t.Fatal("NIC String empty")
	}
	for v, want := range map[Verb]string{
		VerbSend: "send", VerbWrite: "write", VerbRead: "read",
		VerbCompSwap: "cmp-swap", VerbFetchAdd: "fetch-add", Verb(99): "Verb(99)",
	} {
		if v.String() != want {
			t.Errorf("Verb(%d).String = %q, want %q", int(v), v.String(), want)
		}
	}
	for st, want := range map[CompletionStatus]string{
		StatusOK: "OK", StatusRetryExceeded: "RETRY_EXC_ERR",
		StatusRemoteAccessError: "REM_ACCESS_ERR", StatusRNRRetryExceeded: "RNR_RETRY_EXC_ERR",
		StatusFlushed: "FLUSHED", CompletionStatus(42): "Status(42)",
	} {
		if st.String() != want {
			t.Errorf("Status String = %q, want %q", st.String(), want)
		}
	}
	for sc, want := range map[CNPScope]string{
		CNPPerPort: "per-port", CNPPerDstIP: "per-dst-ip", CNPPerQP: "per-qp", CNPScope(9): "CNPScope(9)",
	} {
		if sc.String() != want {
			t.Errorf("CNPScope String = %q, want %q", sc.String(), want)
		}
	}
}

func TestParseVerbAndModelTables(t *testing.T) {
	for _, s := range []string{"send", "send_recv", "sendrecv", "write", "read"} {
		if _, err := ParseVerb(s); err != nil {
			t.Errorf("ParseVerb(%q): %v", s, err)
		}
	}
	if _, err := ParseVerb("atomic"); err == nil {
		t.Error("ParseVerb accepted unknown verb")
	}
	if len(ModelNames()) != 5 || len(HardwareModelNames()) != 4 {
		t.Fatalf("model tables: %v / %v", ModelNames(), HardwareModelNames())
	}
	for _, m := range ModelNames() {
		if _, err := ProfileByName(m); err != nil {
			t.Errorf("ProfileByName(%q): %v", m, err)
		}
	}
	if _, err := ProfileByName("cx9"); err == nil {
		t.Error("unknown model accepted")
	} else if !strings.Contains(err.Error(), "cx4, cx5, cx6, e810, spec") {
		t.Errorf("unknown-model error %q does not list known models sorted", err)
	}
}

func TestStaleReadRequestGetsInvalidNak(t *testing.T) {
	// A duplicate read request whose range has aged out of the
	// responder's read context window draws an invalid-request NAK and
	// the requester QP errors.
	p := newPair(t, defaultPairOpts())
	qa, qb, mr := p.connect(t, 1024, 10, 7)
	// Seed the responder past many read contexts so the window (64) evicts
	// the first range.
	for i := 0; i < 70; i++ {
		qa.PostSend(WorkRequest{Verb: VerbRead, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey})
	}
	p.s.Run()
	// Craft a duplicate read request for the long-evicted first range.
	dup := qb // responder-side QP sends nothing; build via requester's builder
	_ = dup
	w := qa.wqes[0]
	wire := qa.encode(qa.makeReadRequest(w, w.startPSN))
	var st CompletionStatus = -1
	// Attach one more WQE so the fatal path has something to flush.
	qa.PostSend(WorkRequest{
		Verb: VerbRead, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey,
		OnComplete: func(c Completion) { st = c.Status },
	})
	p.relay.toB.Send(wire) // replay the stale request at the responder
	p.s.Run()
	if st != StatusOK && st != StatusRemoteAccessError {
		// The stale request triggers NakInvalidReq at the requester,
		// which our requester maps to a fatal error; depending on timing
		// the fresh WQE may have completed first.
		t.Logf("fresh wqe status: %v", st)
	}
	// The responder must have emitted an invalid-request NAK.
	// (Observable via the requester entering error state or the NAK on
	// the wire; assert via counters: no crash and duplicate counted.)
	if p.b.Counters.Get(CtrDuplicateReq) == 0 {
		t.Fatal("stale duplicate read not counted")
	}
}

func TestSendWithImmediate(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	var got Completion
	p.bQP.PostRecv(RecvRequest{WRID: 1, OnComplete: func(c Completion) { got = c }})
	var sawImmOpcode bool
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode == packet.OpSendLastImm {
			sawImmOpcode = true
			if pkt.Imm != 0xABCD1234 {
				t.Errorf("wire Imm = %#x", pkt.Imm)
			}
		}
		return relayPass
	}
	p.aQP.PostSend(WorkRequest{
		Verb: VerbSend, Length: 2048, UseImm: true, Imm: 0xABCD1234,
	})
	p.s.Run()
	if !sawImmOpcode {
		t.Fatal("SEND_LAST_WITH_IMMEDIATE never on the wire")
	}
	if !got.HasImm || got.Imm != 0xABCD1234 {
		t.Fatalf("recv completion = %+v, want immediate", got)
	}
	if got.Bytes != 2048 {
		t.Fatalf("recv bytes = %d", got.Bytes)
	}
}

func TestWriteWithImmediateConsumesRecv(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	var got []Completion
	p.bQP.PostRecv(RecvRequest{WRID: 5, OnComplete: func(c Completion) { got = append(got, c) }})

	// A plain write must NOT consume the receive…
	done := false
	p.aQP.PostSend(WorkRequest{
		Verb: VerbWrite, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey,
		OnComplete: func(Completion) { done = true },
	})
	p.s.Run()
	if !done || len(got) != 0 {
		t.Fatalf("plain write consumed a recv: %v", got)
	}

	// …while write-with-immediate does, delivering only the immediate.
	p.aQP.PostSend(WorkRequest{
		Verb: VerbWrite, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey,
		UseImm: true, Imm: 77,
	})
	p.s.Run()
	if len(got) != 1 || !got[0].HasImm || got[0].Imm != 77 {
		t.Fatalf("write-with-imm recv completion = %+v", got)
	}
	if got[0].Bytes != 0 {
		t.Fatalf("write-with-imm recv bytes = %d, want 0 (data went to memory)", got[0].Bytes)
	}
}

func TestWriteWithImmediateNeedsRecv(t *testing.T) {
	// Without a posted receive, write-with-immediate draws RNR like a
	// Send would.
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	var st CompletionStatus = -1
	p.aQP.PostSend(WorkRequest{
		Verb: VerbWrite, Length: 512, RemoteAddr: mr.Addr, RKey: mr.RKey,
		UseImm: true, Imm: 1,
		OnComplete: func(c Completion) { st = c.Status },
	})
	p.runFor(50 * sim.Microsecond)
	p.bQP.PostRecv(RecvRequest{WRID: 9})
	p.s.Run()
	if st != StatusOK {
		t.Fatalf("status = %v, want recovery after recv posted", st)
	}
}
