package rnic

import (
	"encoding/binary"
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// relayOutcome is what one Send-Only-Immediate observably did: the
// PSN the responder acknowledged and both sides' completions.
type relayOutcome struct {
	ackPSN     uint32
	acks       int
	recv, sent []Completion
}

// sendThroughRelay delivers one Send-Only-Immediate through a relay
// that copies each of the requester's frames into one buffer of its own
// and sends that buffer on to the responder. With scribble set, the
// relay overwrites every byte of its buffer as soon as Send returns —
// long before the frame arrives — as sim.Port's contract allows a
// sender to do.
func sendThroughRelay(t *testing.T, scribble bool) relayOutcome {
	t.Helper()
	p := newPair(t, defaultPairOpts())
	var out relayOutcome
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		if pkt := decode(t, w); !fromA && pkt.BTH.Opcode == packet.OpAcknowledge {
			out.ackPSN, out.acks = pkt.BTH.PSN, out.acks+1
		}
		return relayPass
	}
	var buf []byte
	p.relay.toA.SetReceiver(func(w []byte) {
		buf = append(buf[:0], w...)
		p.relay.toB.Send(buf)
		if scribble {
			for i := range buf {
				buf[i] = 0xDB
			}
		}
	})
	p.connect(t, 1024, 10, 7)
	p.bQP.PostRecv(RecvRequest{WRID: 7, OnComplete: func(c Completion) { out.recv = append(out.recv, c) }})
	if err := p.aQP.PostSend(WorkRequest{
		WRID: 3, Verb: VerbSend, Length: 100, UseImm: true, Imm: 0xfeedf00d,
		OnComplete: func(c Completion) { out.sent = append(out.sent, c) },
	}); err != nil {
		t.Fatal(err)
	}
	p.s.Run()
	return out
}

// TestUnownedFrameOutlivesItsSender: the bytes a caller passes to Send
// stay the caller's, so what the responder does with the frame must not
// depend on them once Send returns. Overwriting them must leave the
// acknowledged PSN and both completions as they are with the bytes left
// alone.
func TestUnownedFrameOutlivesItsSender(t *testing.T) {
	want := sendThroughRelay(t, false)
	if want.acks != 1 || len(want.recv) != 1 || len(want.sent) != 1 {
		t.Fatalf("untouched run: %d ACKs, %d receive and %d send completions, want one each",
			want.acks, len(want.recv), len(want.sent))
	}
	if r := want.recv[0]; r.Bytes != 100 || !r.HasImm || r.Imm != 0xfeedf00d {
		t.Fatalf("untouched run: receive completion %+v, want 100 bytes and immediate 0xfeedf00d", r)
	}
	got := sendThroughRelay(t, true)
	if got.ackPSN != want.ackPSN || got.acks != want.acks {
		t.Errorf("overwritten run acknowledged PSN %d in %d ACK(s), untouched run PSN %d in %d",
			got.ackPSN, got.acks, want.ackPSN, want.acks)
	}
	if len(got.recv) != 1 || got.recv[0] != want.recv[0] {
		t.Errorf("overwritten run's receive completions %+v, untouched run's %+v", got.recv, want.recv)
	}
	if len(got.sent) != 1 || got.sent[0] != want.sent[0] {
		t.Errorf("overwritten run's send completions %+v, untouched run's %+v", got.sent, want.sent)
	}
}

// fuzzPair is FuzzNICReceive's testbed: two CX5 NICs (strict APM
// receivers) through the relay, one RC QP each, the responder's receives
// posted and a 64 KiB MR registered on it, so no read outruns the run.
// Every APM cache slot is already taken, as by twelve other
// connections: a MigReq=0 data packet takes the slow path.
func fuzzPair(t testing.TB) (*testPair, MR) {
	o := defaultPairOpts()
	o.profA, o.profB = Profiles()[ModelCX5], Profiles()[ModelCX5]
	p := newPair(t, o)
	cfg := QPConfig{MTU: 1024, TimeoutExp: 10, RetryCnt: 7}
	p.aQP, p.bQP = p.a.CreateQP(cfg), p.b.CreateQP(cfg)
	p.aQP.Connect(p.bQP.Local())
	p.bQP.Connect(p.aQP.Local())
	for i := range 4 {
		p.bQP.PostRecv(RecvRequest{WRID: i})
	}
	p.b.apmCacheN = apmCacheCapacity
	return p, p.b.RegisterMR(64 << 10)
}

// receiveSeeds is one in-order frame per opcode the NIC handles, from
// the requester's QP to the responder's, its RETH or AtomicETH naming
// the responder's MR. Each carries MigReq=0, so the data frames take
// the APM slow path on their way to the transport handlers.
func receiveSeeds(t testing.TB) [][]byte {
	p, mr := fuzzPair(t)
	qa := p.aQP
	ops := []packet.Opcode{packet.OpCNP}
	for op := packet.OpSendFirst; op <= packet.OpFetchAdd; op++ {
		ops = append(ops, op)
	}
	var seeds [][]byte
	for _, op := range ops {
		h := qa.baseHeader(op, qa.IPSN)
		h.BTH.AckReq = op.IsLast() || op.IsOnly() || op.IsReadRequest() || op.IsAtomic()
		h.BTH.MigReq = false
		h.RETH = packet.RETH{VA: mr.Addr, RKey: mr.RKey, DMALen: 3000}
		h.AETH = packet.AETH{Syndrome: packet.SyndromeACK | 31}
		h.Imm = 0xfeedf00d
		h.Atomic = packet.AtomicETH{VA: mr.Addr, RKey: mr.RKey, SwapAdd: 5}
		h.AtomicAck = 1000
		if op.IsData() && !op.IsReadRequest() && !op.IsAtomic() {
			h.Payload, h.BTH.PadCount = make([]byte, 61), 3
		}
		seeds = append(seeds, h.AppendWire(nil))
	}
	return seeds
}

// FuzzNICReceive delivers arbitrary bytes, as a pool frame, to the
// responder of a connected RC pair. An input ParseFrame accepts has its
// iCRC resealed first, so mutated headers reach the transport handlers
// instead of stopping at the iCRC check. No input may panic the NIC; the
// RX counters must count the input exactly when it is a RoCEv2 frame,
// with no iCRC error; and the APM slow path must drain by the deadline.
func FuzzNICReceive(f *testing.F) {
	for _, s := range receiveSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		v, err := packet.ParseFrame(wire)
		roce := err == nil && v.IsRoCE()
		if err == nil {
			crc := len(wire) - packet.ICRCSize
			binary.LittleEndian.PutUint32(wire[crc:], packet.ComputeICRC(wire[:crc]))
		}
		p, _ := fuzzPair(t)
		p.relay.toB.Send(wire)
		p.runFor(10 * sim.Millisecond)
		want := uint64(0)
		if roce {
			want = 1
		}
		if got := p.b.Counters.Get(CtrRxRoCEPackets); got != want {
			t.Errorf("rx_roce_packets = %d, want %d", got, want)
		}
		if got := p.b.Counters.Get(CtrICRCErrors); got != 0 {
			t.Errorf("%d iCRC error(s) on a resealed frame", got)
		}
		if p.b.apmQueued != 0 {
			t.Errorf("%d frame(s) still in the APM slow path", p.b.apmQueued)
		}
	})
}
