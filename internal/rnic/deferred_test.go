package rnic

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// The tests in this file hold the NIC's deferred reactions — the ones
// that wait out a profile delay before acting — to numbers read off the
// profile, not to a golden: when each fires, and what it acts on.

// timed is one frame seen at a NIC's port, at the instant it left or
// arrived. Its payload is dropped.
type timed struct {
	at  sim.Time
	pkt packet.Packet
}

// onSend calls fn for every frame n puts on its port, at the instant of
// the send.
func onSend(t *testing.T, n *NIC, fn func(timed)) {
	n.port.SetStamper(func(w []byte, at sim.Time, _ int64, _ sim.Duration) {
		fn(timed{at, *decodeHeaders(t, w)})
	})
}

// onArrive calls fn for every frame arriving at n's port, before the NIC
// sees it.
func onArrive(t *testing.T, n *NIC, fn func(timed)) {
	n.port.SetFrameReceiver(func(w []byte) {
		fn(timed{n.Sim.Now(), *decodeHeaders(t, w)})
		n.receive(w)
	})
}

func decodeHeaders(t *testing.T, w []byte) *packet.Packet {
	pkt := decode(t, w)
	pkt.Payload = nil
	return pkt
}

// TestRNRRetryRewindsToUnaAfterFixedDelay withholds B's receive until
// the RNR NAK reaches A. A must retransmit from its unacknowledged PSN
// exactly 100 µs after the NAK clears its RX pipeline, and the retry
// then completes.
func TestRNRRetryRewindsToUnaAfterFixedDelay(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, qb, _ := p.connect(t, 1024, 10, 7)
	var naks []timed
	onArrive(t, p.a, func(e timed) {
		if e.pkt.BTH.Opcode.IsAck() && e.pkt.AETH.IsRNR() {
			naks = append(naks, e)
			qb.PostRecv(RecvRequest{WRID: 9})
		}
	})
	var sends []timed
	onSend(t, p.a, func(e timed) {
		if e.pkt.BTH.Opcode == packet.OpSendOnly {
			sends = append(sends, e)
		}
	})
	var comps []Completion
	qa.PostSend(WorkRequest{WRID: 1, Verb: VerbSend, Length: 512,
		OnComplete: func(c Completion) { comps = append(comps, c) }})
	p.s.Run()

	if len(naks) != 1 || len(sends) != 2 {
		t.Fatalf("%d RNR NAKs and %d sends, want 1 and 2", len(naks), len(sends))
	}
	if got := sends[1].pkt.BTH.PSN; got != qa.IPSN {
		t.Errorf("retry sent PSN %d, want the unacknowledged PSN %d", got, qa.IPSN)
	}
	want := naks[0].at.Add(p.a.Prof.PipelineDelay + 100*sim.Microsecond)
	if sends[1].at != want {
		t.Errorf("retry left at %v, want %v (NAK arrival + pipeline + 100µs)", sends[1].at, want)
	}
	if len(comps) != 1 || comps[0].Status != StatusOK {
		t.Errorf("completions %+v, want one OK", comps)
	}
}

// TestPipelinedAtomicAcksCarryTheirOwnResults sends two fetch-adds back
// to back, so the second arrives while the first one's ACK is still
// waiting out AckGenDelay. Each ACK must leave AckGenDelay after its own
// request cleared B's pipeline and carry its own PSN, original value and
// MSN.
func TestPipelinedAtomicAcksCarryTheirOwnResults(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, mr := p.connect(t, 1024, 10, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 100)
	var reqs, acks []timed
	onArrive(t, p.b, func(e timed) {
		if e.pkt.BTH.Opcode == packet.OpFetchAdd {
			reqs = append(reqs, e)
		}
	})
	onSend(t, p.b, func(e timed) {
		if e.pkt.BTH.Opcode == packet.OpAtomicAcknowledge {
			acks = append(acks, e)
		}
	})
	for i := 0; i < 2; i++ {
		qa.PostSend(WorkRequest{WRID: i, Verb: VerbFetchAdd, RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 7})
	}
	p.s.Run()

	if len(reqs) != 2 || len(acks) != 2 {
		t.Fatalf("%d requests and %d atomic ACKs, want 2 and 2", len(reqs), len(acks))
	}
	delay := p.b.Prof.PipelineDelay + p.b.Prof.AckGenDelay
	if reqs[1].at >= reqs[0].at.Add(delay) {
		t.Fatalf("second request arrived %v after the first: the ACKs never wait together", reqs[1].at.Sub(reqs[0].at))
	}
	for i, a := range acks {
		if want := psnAdd(qa.IPSN, uint32(i)); a.pkt.BTH.PSN != want {
			t.Errorf("ACK %d names PSN %d, want %d", i, a.pkt.BTH.PSN, want)
		}
		if want := uint64(100 + 7*i); a.pkt.AtomicAck != want {
			t.Errorf("ACK %d carries original %d, want %d", i, a.pkt.AtomicAck, want)
		}
		if want := uint32(i + 1); a.pkt.AETH.MSN != want {
			t.Errorf("ACK %d carries MSN %d, want %d", i, a.pkt.AETH.MSN, want)
		}
		if want := reqs[i].at.Add(delay); a.at != want {
			t.Errorf("ACK %d left at %v, want %v (arrival + pipeline + AckGenDelay)", i, a.at, want)
		}
	}
}

// TestRereadsFireInDelayOrder sends B two duplicate Read requests for
// one finished 8-packet Read: offset 6 first, offset 1 100 ns later.
// With NACKReactRead rising 1 µs per PSN, the later request's reaction
// is 5 µs shorter, so its responses (PSNs 1..7) must go out first, at its
// own arrival + pipeline + 2 µs, and offset 6's (PSNs 6, 7) at its own
// arrival + pipeline + 7 µs.
func TestRereadsFireInDelayOrder(t *testing.T) {
	o := defaultPairOpts()
	o.profB.NACKReactRead = LatencyCurve{Base: sim.Microsecond, PerPSN: sim.Microsecond}
	p := newPair(t, o)
	qa, _, mr := p.connect(t, 1024, 10, 7)
	const npkts = 8
	if comps := runTransfer(t, p, VerbRead, 1, npkts*1024, mr); len(comps) != 1 || comps[0].Status != StatusOK {
		t.Fatalf("first Read: %+v", comps)
	}

	reread := func(off int) []byte {
		pkt := qa.baseHeader(packet.OpReadRequest, psnAdd(qa.IPSN, uint32(off)))
		pkt.RETH = packet.RETH{VA: mr.Addr + uint64(off*1024), RKey: mr.RKey, DMALen: uint32((npkts - off) * 1024)}
		pkt.BTH.AckReq = true
		return pkt.AppendWire(nil)
	}
	arrived := map[uint32]sim.Time{}
	onArrive(t, p.b, func(e timed) {
		if e.pkt.BTH.Opcode == packet.OpReadRequest {
			arrived[psnSub(e.pkt.BTH.PSN, qa.IPSN)] = e.at
		}
	})
	var resps []timed
	onSend(t, p.b, func(e timed) { resps = append(resps, e) })
	first, second := reread(6), reread(1)
	at := p.s.Now().Add(10 * sim.Microsecond)
	p.s.At(at, func() { p.relay.toB.Send(first) })
	p.s.At(at.Add(100), func() { p.relay.toB.Send(second) })
	p.s.Run()

	if len(arrived) != 2 {
		t.Fatalf("B saw re-reads at offsets %v, want 6 and 1", arrived)
	}
	pipe := p.b.Prof.PipelineDelay
	want := []struct {
		off int
		at  sim.Time
	}{
		{1, arrived[1].Add(pipe + 2*sim.Microsecond)},
		{6, arrived[6].Add(pipe + 7*sim.Microsecond)},
	}
	if len(resps) != (npkts-1)+(npkts-6) {
		t.Fatalf("B sent %d responses, want %d", len(resps), (npkts-1)+(npkts-6))
	}
	i := 0
	for _, w := range want {
		if resps[i].at != w.at {
			t.Errorf("re-read from offset %d began at %v, want %v", w.off, resps[i].at, w.at)
		}
		for k := w.off; k < npkts; k, i = k+1, i+1 {
			op := resps[i].pkt.BTH.Opcode
			if got := psnSub(resps[i].pkt.BTH.PSN, qa.IPSN); !op.IsReadResponse() || got != uint32(k) {
				t.Fatalf("response %d is %v at offset %d, want a read response at offset %d", i, op, got, k)
			}
		}
	}
}

// TestImpliedNakRereadsAfterReadGenDelay drops response 3 of a 10-packet
// Read. Response 4 opens the gap when it clears A's pipeline, and A
// must re-read from offset 3 NACKGenRead (1 µs on spec) later, not on a
// timeout.
func TestImpliedNakRereadsAfterReadGenDelay(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	qa, _, mr := p.connect(t, 1024, 10, 7)
	dropped := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		if pkt := decode(t, w); !fromA && !dropped && pkt.BTH.Opcode.IsReadResponse() && psnSub(pkt.BTH.PSN, qa.IPSN) == 3 {
			dropped = true
			return relayDrop
		}
		return relayPass
	}
	var gapAt sim.Time
	onArrive(t, p.a, func(e timed) {
		if e.pkt.BTH.Opcode.IsReadResponse() && psnSub(e.pkt.BTH.PSN, qa.IPSN) == 4 && gapAt == 0 {
			gapAt = e.at
		}
	})
	var reqs []timed
	onSend(t, p.a, func(e timed) {
		if e.pkt.BTH.Opcode == packet.OpReadRequest {
			reqs = append(reqs, e)
		}
	})
	if comps := runTransfer(t, p, VerbRead, 1, 10*1024, mr); len(comps) != 1 || comps[0].Status != StatusOK {
		t.Fatalf("Read: %+v", comps)
	}
	if len(reqs) != 2 {
		t.Fatalf("A sent %d Read requests, want the request and one re-read", len(reqs))
	}
	if got := psnSub(reqs[1].pkt.BTH.PSN, qa.IPSN); got != 3 {
		t.Errorf("re-read from offset %d, want 3", got)
	}
	want := gapAt.Add(p.a.Prof.PipelineDelay + p.a.Prof.NACKGenRead.Base)
	if reqs[1].at != want {
		t.Errorf("re-read left at %v, want %v (gap arrival + pipeline + NACKGenRead)", reqs[1].at, want)
	}
	if got := p.a.Counters.Get(CtrLocalAckTimeout); got != 0 {
		t.Errorf("local_ack_timeout_err = %d, want 0", got)
	}
}

// TestAPMSlowPathDispatchesInAdmissionOrder fills B's APM cache with
// twelve MigReq=0 connections, then sends an 8-packet Write on a
// thirteenth. Its packets queue for the serial slow path (1 µs each
// here), so packet i is dispatched at the first arrival + (i+1) µs, in
// PSN order: B acknowledges the 4th and the 8th packets AckGenDelay
// after their dispatch and never sees a gap.
func TestAPMSlowPathDispatchesInAdmissionOrder(t *testing.T) {
	o := defaultPairOpts()
	o.profA.MigReqInit = false
	o.profB.StrictAPM, o.profB.APMServiceTime = true, sim.Microsecond
	p := newPair(t, o)
	cfg := QPConfig{MTU: 1024, TimeoutExp: 10, RetryCnt: 7}
	mr := p.b.RegisterMR(1 << 20)
	var qas, qbs []*QP
	for i := 0; i <= apmCacheCapacity; i++ {
		qa, qb := p.a.CreateQP(cfg), p.b.CreateQP(cfg)
		qa.Connect(qb.Local())
		qb.Connect(qa.Local())
		qas, qbs = append(qas, qa), append(qbs, qb)
	}
	for _, qa := range qas[:apmCacheCapacity] {
		qa.PostSend(WorkRequest{Verb: VerbWrite, Length: 1024, RemoteAddr: mr.Addr, RKey: mr.RKey})
	}
	p.s.Run()

	slowA, slowB := qas[apmCacheCapacity], qbs[apmCacheCapacity]
	var arrivals, acks []timed
	onArrive(t, p.b, func(e timed) {
		if e.pkt.BTH.DestQP == slowB.QPN && e.pkt.BTH.Opcode.IsData() {
			arrivals = append(arrivals, e)
		}
	})
	onSend(t, p.b, func(e timed) {
		if e.pkt.BTH.DestQP == slowA.QPN && e.pkt.BTH.Opcode.IsAck() {
			acks = append(acks, e)
		}
	})
	var comps []Completion
	slowA.PostSend(WorkRequest{Verb: VerbWrite, Length: 8 * 1024, RemoteAddr: mr.Addr, RKey: mr.RKey,
		OnComplete: func(c Completion) { comps = append(comps, c) }})
	p.s.Run()

	if len(arrivals) != 8 || arrivals[7].at >= arrivals[0].at.Add(sim.Microsecond) {
		t.Fatalf("%d arrivals, the last %v after the first: want 8 queued behind the first's service",
			len(arrivals), arrivals[len(arrivals)-1].at.Sub(arrivals[0].at))
	}
	if got := p.b.Counters.Get(CtrApmProcessed); got != 8 {
		t.Errorf("apm_slow_path_packets = %d, want 8", got)
	}
	if got := p.b.Counters.Get(CtrOutOfSequence); got != 0 {
		t.Errorf("out_of_sequence = %d, want 0", got)
	}
	dispatched := func(i int) sim.Time { return arrivals[0].at.Add(sim.Duration(i+1) * sim.Microsecond) }
	want := []struct {
		psn uint32
		at  sim.Time
	}{
		{psnAdd(slowA.IPSN, 3), dispatched(3).Add(p.b.Prof.AckGenDelay)},
		{psnAdd(slowA.IPSN, 7), dispatched(7).Add(p.b.Prof.AckGenDelay)},
	}
	if len(acks) != len(want) {
		t.Fatalf("B sent %d ACKs, want %d", len(acks), len(want))
	}
	for i, w := range want {
		if acks[i].pkt.BTH.PSN != w.psn || !acks[i].pkt.AETH.IsAck() || acks[i].at != w.at {
			t.Errorf("ACK %d: PSN %d at %v, want an ACK for %d at %v", i, acks[i].pkt.BTH.PSN, acks[i].at, w.psn, w.at)
		}
	}
	if len(comps) != 1 || comps[0].Status != StatusOK {
		t.Errorf("completions %+v, want one OK", comps)
	}
}
