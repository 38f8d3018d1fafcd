package rnic

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
)

func TestFetchAddReturnsOriginalAndAdds(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	if !p.b.WriteMR(mr.RKey, mr.Addr, 100) {
		t.Fatal("WriteMR failed")
	}
	var comps []Completion
	for i := 0; i < 3; i++ {
		p.aQP.PostSend(WorkRequest{
			WRID: i, Verb: VerbFetchAdd, RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 7,
			OnComplete: func(c Completion) { comps = append(comps, c) },
		})
	}
	p.s.Run()
	if len(comps) != 3 {
		t.Fatalf("completions = %d", len(comps))
	}
	// Atomics execute in order: originals are 100, 107, 114.
	for i, want := range []uint64{100, 107, 114} {
		if comps[i].Status != StatusOK || comps[i].AtomicOrig != want {
			t.Fatalf("completion %d = %+v, want orig %d", i, comps[i], want)
		}
	}
	if v, _ := p.b.ReadMR(mr.RKey, mr.Addr); v != 121 {
		t.Fatalf("final cell = %d, want 121", v)
	}
}

func TestCompareSwapSemantics(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 42)

	var c1, c2 Completion
	// Matching compare: swap happens.
	p.aQP.PostSend(WorkRequest{
		WRID: 1, Verb: VerbCompSwap, RemoteAddr: mr.Addr, RKey: mr.RKey,
		Compare: 42, SwapAdd: 99,
		OnComplete: func(c Completion) { c1 = c },
	})
	// Mismatching compare: no swap, returns the (new) original.
	p.aQP.PostSend(WorkRequest{
		WRID: 2, Verb: VerbCompSwap, RemoteAddr: mr.Addr, RKey: mr.RKey,
		Compare: 42, SwapAdd: 7,
		OnComplete: func(c Completion) { c2 = c },
	})
	p.s.Run()
	if c1.AtomicOrig != 42 || c2.AtomicOrig != 99 {
		t.Fatalf("originals = %d, %d; want 42, 99", c1.AtomicOrig, c2.AtomicOrig)
	}
	if v, _ := p.b.ReadMR(mr.RKey, mr.Addr); v != 99 {
		t.Fatalf("cell = %d, want 99 (second swap must not apply)", v)
	}
}

func TestAtomicWireFormat(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	var req, ack *packet.Packet
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode == packet.OpCompareSwap && req == nil {
			c := *pkt
			req = &c
		}
		if !fromA && pkt.BTH.Opcode == packet.OpAtomicAcknowledge && ack == nil {
			c := *pkt
			ack = &c
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 5)
	p.aQP.PostSend(WorkRequest{
		Verb: VerbCompSwap, RemoteAddr: mr.Addr, RKey: mr.RKey, Compare: 5, SwapAdd: 6,
	})
	p.s.Run()
	if req == nil || ack == nil {
		t.Fatal("atomic request/ack not observed on the wire")
	}
	if req.Atomic.VA != mr.Addr || req.Atomic.RKey != mr.RKey ||
		req.Atomic.Compare != 5 || req.Atomic.SwapAdd != 6 {
		t.Fatalf("AtomicETH = %+v", req.Atomic)
	}
	if ack.AtomicAck != 5 {
		t.Fatalf("AtomicAckETH orig = %d, want 5", ack.AtomicAck)
	}
	if !ack.AETH.IsAck() {
		t.Fatal("atomic ack AETH not positive")
	}
}

func TestAtomicExactlyOnceUnderAckLoss(t *testing.T) {
	// Drop the atomic acknowledge: the requester retransmits the atomic,
	// and the responder must REPLAY the original result rather than
	// re-execute — exactly-once semantics via the replay cache.
	o := defaultPairOpts()
	o.timeoutExp = 8 // ~1 ms RTO keeps the test fast
	p := newPair(t, o)
	droppedOnce := false
	executions := 0
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode == packet.OpFetchAdd {
			executions++ // wire-level request count
		}
		if !fromA && pkt.BTH.Opcode == packet.OpAtomicAcknowledge && !droppedOnce {
			droppedOnce = true
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 8, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 10)
	var comp Completion
	p.aQP.PostSend(WorkRequest{
		Verb: VerbFetchAdd, RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 5,
		OnComplete: func(c Completion) { comp = c },
	})
	p.s.Run()
	if comp.Status != StatusOK || comp.AtomicOrig != 10 {
		t.Fatalf("completion = %+v", comp)
	}
	if executions < 2 {
		t.Fatalf("request transmitted %d times, want a retransmission", executions)
	}
	// The add applied exactly once despite two request deliveries.
	if v, _ := p.b.ReadMR(mr.RKey, mr.Addr); v != 15 {
		t.Fatalf("cell = %d, want 15 (exactly-once)", v)
	}
	if got := p.b.Counters.Get(CtrDuplicateReq); got == 0 {
		t.Fatal("duplicate atomic not counted")
	}
}

func TestAtomicBadRKeyFails(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	p.connect(t, 1024, 10, 7)
	var st CompletionStatus = -1
	p.aQP.PostSend(WorkRequest{
		Verb: VerbFetchAdd, RemoteAddr: 0xdead, RKey: 0xbad, SwapAdd: 1,
		OnComplete: func(c Completion) { st = c.Status },
	})
	p.s.Run()
	if st != StatusRemoteAccessError {
		t.Fatalf("status = %v", st)
	}
}

func TestAtomicInterleavedWithWrites(t *testing.T) {
	// Atomics and writes share the PSN space and complete in order.
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, 1024, 10, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 1)
	var order []int
	post := func(id int, wr WorkRequest) {
		wr.WRID = id
		wr.OnComplete = func(c Completion) {
			if c.Status != StatusOK {
				t.Errorf("wr %d: %v", id, c.Status)
			}
			order = append(order, id)
		}
		if err := p.aQP.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	post(1, WorkRequest{Verb: VerbWrite, Length: 4096, RemoteAddr: mr.Addr, RKey: mr.RKey})
	post(2, WorkRequest{Verb: VerbFetchAdd, RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 1})
	post(3, WorkRequest{Verb: VerbWrite, Length: 2048, RemoteAddr: mr.Addr, RKey: mr.RKey})
	p.s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order = %v", order)
	}
}

func TestMRReadWriteBounds(t *testing.T) {
	s := newPair(t, defaultPairOpts())
	mr := s.b.RegisterMR(64)
	if !s.b.WriteMR(mr.RKey, mr.Addr+56, 9) {
		t.Fatal("in-bounds write refused")
	}
	if s.b.WriteMR(mr.RKey, mr.Addr+60, 9) {
		t.Fatal("out-of-bounds 8-byte write accepted")
	}
	if _, ok := s.b.ReadMR(0xbad, mr.Addr); ok {
		t.Fatal("read with bad rkey accepted")
	}
	if v, ok := s.b.ReadMR(mr.RKey, mr.Addr+56); !ok || v != 9 {
		t.Fatalf("readback = %d, %v", v, ok)
	}
}

func TestAtomicAckNotCoalescedByLaterAcks(t *testing.T) {
	// Drop only the FIRST of several atomic acks. Later atomic acks must
	// not orphan the first operation: the spec forbids coalescing atomic
	// responses, so the requester retransmits and the responder replays
	// the original value from its cache.
	o := defaultPairOpts()
	o.timeoutExp = 8
	p := newPair(t, o)
	droppedOnce := false
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if !fromA && pkt.BTH.Opcode == packet.OpAtomicAcknowledge && !droppedOnce {
			droppedOnce = true
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 8, 7)
	p.b.WriteMR(mr.RKey, mr.Addr, 100)
	comps := map[int]Completion{}
	for i := 0; i < 4; i++ {
		i := i
		p.aQP.PostSend(WorkRequest{
			WRID: i, Verb: VerbFetchAdd, RemoteAddr: mr.Addr, RKey: mr.RKey, SwapAdd: 1,
			OnComplete: func(c Completion) { comps[i] = c },
		})
	}
	p.s.Run()
	if len(comps) != 4 {
		t.Fatalf("completed %d of 4 atomics (first one orphaned?)", len(comps))
	}
	for i := 0; i < 4; i++ {
		c := comps[i]
		if c.Status != StatusOK || c.AtomicOrig != uint64(100+i) {
			t.Fatalf("atomic %d = %+v, want orig %d", i, c, 100+i)
		}
	}
	if v, _ := p.b.ReadMR(mr.RKey, mr.Addr); v != 104 {
		t.Fatalf("cell = %d, want 104 (each add exactly once)", v)
	}
}

// TestAtomicCompletionsFollowPostingOrder posts a Write, four
// fetch-adds and, once those are done, another Write, with the first
// atomic's ACK dropped (every copy of it in the second case, so the QP
// errors). The later atomics' ACKs arrive first, yet the send queue must
// complete in posting order: an RC completion waits for every earlier
// WQE's.
func TestAtomicCompletionsFollowPostingOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dropAll  bool
		statuses []CompletionStatus // by WRID
	}{
		{"ack-lost-once", false, []CompletionStatus{StatusOK, StatusOK, StatusOK, StatusOK, StatusOK, StatusOK}},
		// The first atomic exhausts its retries, and the atomics
		// acknowledged behind it complete OK after it. The QP refuses
		// the last Write.
		{"ack-lost-always", true, []CompletionStatus{StatusOK, StatusRetryExceeded, StatusOK, StatusOK, StatusOK}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultPairOpts()
			o.timeoutExp = 8
			p := newPair(t, o)
			firstAtomicPSN, seen := uint32(0), false
			p.relay.onForward = func(w []byte, fromA bool) relayAction {
				pkt := decode(t, w)
				if fromA && pkt.BTH.Opcode == packet.OpFetchAdd && !seen {
					firstAtomicPSN, seen = pkt.BTH.PSN, true
				}
				if !fromA && pkt.BTH.Opcode == packet.OpAtomicAcknowledge && pkt.BTH.PSN == firstAtomicPSN &&
					(tc.dropAll || p.relay.dropped == 0) {
					return relayDrop
				}
				return relayPass
			}
			_, _, mr := p.connect(t, 1024, 8, 1)
			p.b.WriteMR(mr.RKey, mr.Addr, 100)
			var got []Completion
			posted := 0
			post := func(wr WorkRequest) error {
				wr.WRID = posted
				wr.RemoteAddr, wr.RKey = mr.Addr, mr.RKey
				wr.OnComplete = func(c Completion) { got = append(got, c) }
				err := p.aQP.PostSend(wr)
				if err == nil {
					posted++
				}
				return err
			}
			post(WorkRequest{Verb: VerbWrite, Length: 2048})
			for range 4 {
				post(WorkRequest{Verb: VerbFetchAdd, SwapAdd: 1})
			}
			p.s.Run()
			if err := post(WorkRequest{Verb: VerbWrite, Length: 1024}); (err != nil) != tc.dropAll {
				t.Fatalf("PostSend after the atomics: %v", err)
			}
			p.s.Run()
			if len(got) != len(tc.statuses) {
				t.Fatalf("%d completions, want %d: %+v", len(got), len(tc.statuses), got)
			}
			for i, c := range got {
				if c.WRID != i || c.Status != tc.statuses[i] {
					t.Fatalf("completion %d is WRID %d %v, want WRID %d %v", i, c.WRID, c.Status, i, tc.statuses[i])
				}
				if atomic := i >= 1 && i <= 4; atomic && c.Status == StatusOK && c.AtomicOrig != uint64(99+i) {
					t.Errorf("WRID %d returned %d, want %d", i, c.AtomicOrig, 99+i)
				}
				if i > 0 && c.CompletedAt < got[i-1].CompletedAt {
					t.Errorf("WRID %d completed at %v, before WRID %d at %v", i, c.CompletedAt, i-1, got[i-1].CompletedAt)
				}
			}
		})
	}
}
