package rnic

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// relayNak is one NAK from B as it crossed the relay.
type relayNak struct {
	psn      uint32
	syndrome uint8
	at       sim.Time
}

// requestRun is one run of requests of one verb from A to B.
type requestRun struct {
	p     *testPair
	mr    MR
	first uint32   // PSN of the first request
	reqAt sim.Time // when the first request B received crossed the relay
	naks  []relayNak
	comps []Completion
}

// postRequests posts n single-packet requests of verb (opcode op on the
// wire) from A against an rkey off by badKey from B's MR, and drops the
// first request packet when drop is set.
func postRequests(t *testing.T, op packet.Opcode, verb Verb, n int, badKey uint32, drop bool) requestRun {
	t.Helper()
	r := requestRun{p: newPair(t, defaultPairOpts())}
	dropped, seen := false, false
	r.p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode == op {
			if drop && !dropped {
				dropped = true
				return relayDrop
			}
			if !seen {
				seen, r.reqAt = true, r.p.s.Now()
			}
		}
		if !fromA && pkt.BTH.Opcode.IsAck() && pkt.AETH.IsNak() {
			r.naks = append(r.naks, relayNak{psn: pkt.BTH.PSN, syndrome: pkt.AETH.Syndrome, at: r.p.s.Now()})
		}
		return relayPass
	}
	var qa *QP
	qa, _, r.mr = r.p.connect(t, 1024, 10, 7)
	r.first = qa.IPSN
	for i := 0; i < n; i++ {
		wr := WorkRequest{
			WRID: i, Verb: verb, Length: 1024, RemoteAddr: r.mr.Addr, RKey: r.mr.RKey + badKey, SwapAdd: 5,
			OnComplete: func(c Completion) { r.comps = append(r.comps, c) },
		}
		if err := qa.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	r.p.s.Run()
	if !seen || dropped != drop {
		t.Fatalf("%v requests: seen=%v dropped=%v", op, seen, dropped)
	}
	return r
}

// checkRequestGap holds the gap NAK contract of B's request handler for
// op. With the first of two requests dropped, the second arrives one PSN
// past B's expected PSN, and B must send one PSN_SEQ_ERR NAK naming the
// missing PSN, count one out_of_sequence detection and one
// packet_seq_err, and let A recover both WQEs. The NAK leaves one
// NACK-generation delay (NACKGenWrite at index 0, 1 µs on spec) after
// the gap: later than the remote-access NAK B sends the moment it
// receives the same request with a bad rkey by exactly that delay.
func checkRequestGap(t *testing.T, op packet.Opcode, verb Verb) requestRun {
	t.Helper()
	r := postRequests(t, op, verb, 2, 0, true)
	if len(r.naks) != 1 || r.naks[0].syndrome != packet.NakPSNSeqError {
		t.Fatalf("NAKs %+v, want exactly one PSN_SEQ_ERR", r.naks)
	}
	if r.naks[0].psn != r.first {
		t.Errorf("NAK names PSN %d, want the missing PSN %d", r.naks[0].psn, r.first)
	}
	if got := r.p.b.Counters.Get(CtrOutOfSequence); got != 1 {
		t.Errorf("out_of_sequence = %d, want 1", got)
	}
	if got := r.p.b.Counters.Get(CtrPacketSeqErr); got != 1 {
		t.Errorf("packet_seq_err = %d, want 1", got)
	}
	if len(r.comps) != 2 {
		t.Fatalf("%d completions, want 2", len(r.comps))
	}
	for _, c := range r.comps {
		if c.Status != StatusOK {
			t.Errorf("WRID %d completed %v", c.WRID, c.Status)
		}
	}

	ref := postRequests(t, op, verb, 1, 1, false)
	if len(ref.naks) != 1 || ref.naks[0].syndrome != packet.NakRemoteAccess {
		t.Fatalf("bad-rkey NAKs %+v, want exactly one REMOTE_ACCESS", ref.naks)
	}
	gap, now := r.naks[0].at.Sub(r.reqAt), ref.naks[0].at.Sub(ref.reqAt)
	if got := gap - now; got != sim.Microsecond {
		t.Errorf("gap NAK left %v after an immediate NAK would, want %v", got, sim.Microsecond)
	}
	return r
}

// TestReadRequestGapNaksOnce drops the first of two Read requests: the
// second arrives past the responder's expected PSN (the read-req gap).
func TestReadRequestGapNaksOnce(t *testing.T) {
	checkRequestGap(t, packet.OpReadRequest, VerbRead)
}

// TestAtomicGapNaksOnce drops the first of two Fetch-Adds: the second
// arrives past the responder's expected PSN (the atomic gap). After the
// Go-back-N replay each still executes exactly once.
func TestAtomicGapNaksOnce(t *testing.T) {
	r := checkRequestGap(t, packet.OpFetchAdd, VerbFetchAdd)
	for i, c := range r.comps {
		if want := uint64(5 * i); c.AtomicOrig != want {
			t.Errorf("WRID %d returned %d, want %d", c.WRID, c.AtomicOrig, want)
		}
	}
	if v, _ := r.p.b.ReadMR(r.mr.RKey, r.mr.Addr); v != 10 {
		t.Errorf("cell = %d after two fetch-add 5, want 10", v)
	}
}
