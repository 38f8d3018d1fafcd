package rnic

import (
	"strings"
	"testing"
)

func TestParseTransportTable(t *testing.T) {
	for name, want := range map[string]Transport{
		"": TransportRC, "rc": TransportRC, "uc": TransportUC, "ud": TransportUD,
	} {
		got, err := ParseTransport(name)
		if err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if got := len(TransportNames()); got != 3 {
		t.Fatalf("TransportNames() has %d entries: %v", got, TransportNames())
	}
	if _, err := ParseTransport("xrc"); err == nil {
		t.Error("unknown transport accepted")
	} else if !strings.Contains(err.Error(), "rc, uc, ud") {
		t.Errorf("unknown-transport error %q does not list known transports sorted", err)
	}
}

// TestStackModelDescriptors holds the answers each transport gives
// other packages: whether it recovers losses, which verbs it carries,
// and whether a message must fit in one packet.
func TestStackModelDescriptors(t *testing.T) {
	cases := []struct {
		tp                      Transport
		reliable, write, single bool
	}{
		{TransportRC, true, true, false},
		{TransportUC, false, true, false},
		{TransportUD, false, false, true},
	}
	for _, c := range cases {
		if c.tp.Reliable() != c.reliable || c.tp.SinglePacket() != c.single {
			t.Errorf("%v: Reliable=%v SinglePacket=%v", c.tp, c.tp.Reliable(), c.tp.SinglePacket())
		}
		if !c.tp.Supports(VerbSend) {
			t.Errorf("%v: must support send", c.tp)
		}
		if c.tp.Supports(VerbWrite) != c.write {
			t.Errorf("%v: Supports(write) = %v", c.tp, c.tp.Supports(VerbWrite))
		}
		if atomic := c.tp.Supports(VerbFetchAdd); c.tp.Supports(VerbRead) != c.reliable || atomic != c.reliable {
			t.Errorf("%v: Supports(read) = %v, Supports(fetch-add) = %v; only RC carries them", c.tp, c.tp.Supports(VerbRead), atomic)
		}
	}
}

// connectT is testPair.connect with an explicit transport.
func (p *testPair) connectT(t *testing.T, tp Transport, mtu int) (qa, qb *QP, mr MR) {
	t.Helper()
	cfg := QPConfig{MTU: mtu, TimeoutExp: 10, RetryCnt: 7, Transport: tp}
	qa = p.a.CreateQP(cfg)
	qb = p.b.CreateQP(cfg)
	qa.Connect(qb.Local())
	qb.Connect(qa.Local())
	p.aQP, p.bQP = qa, qb
	mr = p.b.RegisterMR(64 << 20)
	return qa, qb, mr
}

func TestUCVerbRestrictions(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, mr := p.connectT(t, TransportUC, 1024)
	err := qa.PostSend(WorkRequest{Verb: VerbRead, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey})
	if err == nil || !strings.Contains(err.Error(), "not supported on uc") {
		t.Fatalf("UC read PostSend: %v", err)
	}
}

func TestUDVerbAndMTURestrictions(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, mr := p.connectT(t, TransportUD, 1024)
	if err := qa.PostSend(WorkRequest{Verb: VerbWrite, Length: 512, RemoteAddr: mr.Addr, RKey: mr.RKey}); err == nil {
		t.Fatal("UD write PostSend accepted")
	}
	err := qa.PostSend(WorkRequest{Verb: VerbSend, Length: 2048})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1024-byte MTU") {
		t.Fatalf("UD oversized datagram: %v", err)
	}
}

// TestUCDropIsSilent drops one mid-message Write packet and checks the
// full UC contract: no NAK, no retransmission, not even one reverse
// packet on the wire; the sender still completes everything at
// transmit; the receiver counts the discarded fragments and resyncs on
// the next message boundary.
func TestUCDropIsSilent(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, mr := p.connectT(t, TransportUC, 1024)

	const msgs, size = 3, 4096 // 4 packets per message
	fwd := 0
	reverse := 0
	p.relay.onForward = func(wire []byte, fromA bool) relayAction {
		if !fromA {
			reverse++
			return relayPass
		}
		fwd++
		if fwd == 6 { // 2nd packet of message 2: a mid-message gap
			return relayDrop
		}
		return relayPass
	}

	var comps []Completion
	for i := 0; i < msgs; i++ {
		wr := WorkRequest{
			WRID: i, Verb: VerbWrite, Length: size,
			RemoteAddr: mr.Addr, RKey: mr.RKey,
			OnComplete: func(c Completion) { comps = append(comps, c) },
		}
		if err := qa.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	p.s.Run()

	if reverse != 0 {
		t.Errorf("UC put %d packet(s) on the reverse path; want none (no ACKs/NAKs)", reverse)
	}
	if want := msgs*4 - 1; p.relay.forwarded != want {
		t.Errorf("forwarded %d data packets, want %d (no retransmissions)", p.relay.forwarded, want)
	}
	if len(comps) != msgs {
		t.Fatalf("%d completions, want %d", len(comps), msgs)
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Errorf("WRID %d completed %v; UC completes at transmit regardless of loss", c.WRID, c.Status)
		}
	}
	// Message 2's remaining packets (3 of them: the two after the gap
	// plus none redelivered) are silently discarded; out_of_sequence
	// counts the gap detections.
	if got := p.b.Counters.Get(CtrUCRxDropped); got == 0 {
		t.Error("receiver counted no uc_rx_dropped packets")
	}
	if got := p.b.Counters.Get(CtrOutOfSequence); got == 0 {
		t.Error("receiver counted no out_of_sequence detections")
	}
	if got := p.b.Counters.Get(CtrPacketSeqErr); got != 0 {
		t.Errorf("receiver counted %d packet_seq_err NAK(s); UC must never NAK", got)
	}
}

// TestUDDatagramLossIsSilent drops one of four Send datagrams: the
// other three deliver, the sender completes all four at transmit, and
// nothing is ever retransmitted or acknowledged.
func TestUDDatagramLossIsSilent(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, qb, _ := p.connectT(t, TransportUD, 1024)

	const msgs = 4
	delivered := 0
	for i := 0; i < msgs; i++ {
		qb.PostRecv(RecvRequest{WRID: i, OnComplete: func(Completion) { delivered++ }})
	}
	fwd, reverse := 0, 0
	p.relay.onForward = func(wire []byte, fromA bool) relayAction {
		if !fromA {
			reverse++
			return relayPass
		}
		fwd++
		if fwd == 2 {
			return relayDrop
		}
		return relayPass
	}

	var comps []Completion
	for i := 0; i < msgs; i++ {
		wr := WorkRequest{
			WRID: i, Verb: VerbSend, Length: 1024,
			OnComplete: func(c Completion) { comps = append(comps, c) },
		}
		if err := qa.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	p.s.Run()

	if reverse != 0 {
		t.Errorf("UD put %d packet(s) on the reverse path; want none", reverse)
	}
	if fwd != msgs {
		t.Errorf("%d datagrams on the wire, want %d (no retransmissions)", fwd, msgs)
	}
	if delivered != msgs-1 {
		t.Errorf("%d datagrams delivered, want %d", delivered, msgs-1)
	}
	if len(comps) != msgs {
		t.Fatalf("%d sender completions, want %d (completion per datagram at transmit)", len(comps), msgs)
	}
	for _, c := range comps {
		if c.Status != StatusOK {
			t.Errorf("WRID %d completed %v", c.WRID, c.Status)
		}
	}
}

// TestUDNoRecvDropsOnFloor sends more datagrams than posted receives:
// the surplus is discarded without an RNR NAK (there is no such thing
// on a datagram QP) and counted.
func TestUDNoRecvDropsOnFloor(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, qb, _ := p.connectT(t, TransportUD, 1024)
	qb.PostRecv(RecvRequest{WRID: 0})

	reverse := 0
	p.relay.onForward = func(wire []byte, fromA bool) relayAction {
		if !fromA {
			reverse++
		}
		return relayPass
	}
	for i := 0; i < 3; i++ {
		if err := qa.PostSend(WorkRequest{WRID: i, Verb: VerbSend, Length: 64}); err != nil {
			t.Fatal(err)
		}
	}
	p.s.Run()

	if reverse != 0 {
		t.Errorf("%d reverse packet(s); want none (no RNR NAK on UD)", reverse)
	}
	if got := p.b.Counters.Get(CtrUDRxDropped); got != 2 {
		t.Errorf("ud_rx_dropped = %d, want 2", got)
	}
	if got := p.b.Counters.Get(CtrRnrNakRetry); got != 0 {
		t.Errorf("rnr_nak_retry_err = %d, want 0", got)
	}
}

// TestUCResyncAfterGap verifies the stream re-anchors at the next
// message boundary: with the whole head of message 2 dropped, message 3
// still delivers into its receive.
func TestUCResyncAfterGap(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, qb, _ := p.connectT(t, TransportUC, 1024)

	const msgs = 3
	var got []int
	for i := 0; i < msgs; i++ {
		wrid := i
		qb.PostRecv(RecvRequest{WRID: wrid, OnComplete: func(Completion) { got = append(got, wrid) }})
	}
	fwd := 0
	p.relay.onForward = func(wire []byte, fromA bool) relayAction {
		if fromA {
			fwd++
			if fwd == 3 || fwd == 4 { // drop all of message 2 (2 packets each)
				return relayDrop
			}
		}
		return relayPass
	}
	for i := 0; i < msgs; i++ {
		if err := qa.PostSend(WorkRequest{WRID: i, Verb: VerbSend, Length: 2048}); err != nil {
			t.Fatal(err)
		}
	}
	p.s.Run()

	// Receives complete in posting order: messages 1 and 3 consume the
	// first two posted receives.
	if len(got) != 2 {
		t.Fatalf("%d receive completions, want 2 (message 2 lost): %v", len(got), got)
	}
}
