package rnic

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// TestFrameLengthsMatchSpec drives the pair through every packet shape a
// QP emits and holds each captured frame's length to the IB header
// sizes, spelled as numbers: Ethernet 14 + IPv4 20 + UDP 8 + BTH 12, plus
// RETH 16, AETH 4, AtomicETH 28, AtomicAckETH 8 or ImmDt 4, plus payload,
// pad to a 4-byte boundary and iCRC 4. At MTU 256 a 517-byte message is
// a 256-byte first, a 256-byte middle and a 5-byte last packet padded by
// 3; a 5-byte message is one packet padded by 3.
func TestFrameLengthsMatchSpec(t *testing.T) {
	const mtu = 256
	type post struct {
		verb   Verb
		length int
		imm    bool
	}
	cases := []struct {
		name  string
		posts []post
		want  map[packet.Opcode]int
		// nak drops the first WRITE_MIDDLE frame and requires a NAK among
		// the acknowledgements.
		nak bool
	}{
		{
			name:  "write",
			posts: []post{{VerbWrite, 517, false}, {VerbWrite, 5, false}},
			want: map[packet.Opcode]int{
				packet.OpWriteFirst:  14 + 20 + 8 + 12 + 16 + 256 + 4,
				packet.OpWriteMiddle: 14 + 20 + 8 + 12 + 256 + 4,
				packet.OpWriteLast:   14 + 20 + 8 + 12 + 5 + 3 + 4,
				packet.OpWriteOnly:   14 + 20 + 8 + 12 + 16 + 5 + 3 + 4,
				packet.OpAcknowledge: 14 + 20 + 8 + 12 + 4 + 4,
			},
		},
		{
			name:  "immediate",
			posts: []post{{VerbWrite, 517, true}, {VerbWrite, 5, true}, {VerbSend, 517, true}, {VerbSend, 5, true}},
			want: map[packet.Opcode]int{
				packet.OpWriteFirst:   14 + 20 + 8 + 12 + 16 + 256 + 4,
				packet.OpWriteMiddle:  14 + 20 + 8 + 12 + 256 + 4,
				packet.OpWriteLastImm: 14 + 20 + 8 + 12 + 4 + 5 + 3 + 4,
				packet.OpWriteOnlyImm: 14 + 20 + 8 + 12 + 16 + 4 + 5 + 3 + 4,
				packet.OpSendFirst:    14 + 20 + 8 + 12 + 256 + 4,
				packet.OpSendMiddle:   14 + 20 + 8 + 12 + 256 + 4,
				packet.OpSendLastImm:  14 + 20 + 8 + 12 + 4 + 5 + 3 + 4,
				packet.OpSendOnlyImm:  14 + 20 + 8 + 12 + 4 + 5 + 3 + 4,
				packet.OpAcknowledge:  14 + 20 + 8 + 12 + 4 + 4,
			},
		},
		{
			name:  "send",
			posts: []post{{VerbSend, 517, false}, {VerbSend, 5, false}},
			want: map[packet.Opcode]int{
				packet.OpSendFirst:   14 + 20 + 8 + 12 + 256 + 4,
				packet.OpSendMiddle:  14 + 20 + 8 + 12 + 256 + 4,
				packet.OpSendLast:    14 + 20 + 8 + 12 + 5 + 3 + 4,
				packet.OpSendOnly:    14 + 20 + 8 + 12 + 5 + 3 + 4,
				packet.OpAcknowledge: 14 + 20 + 8 + 12 + 4 + 4,
			},
		},
		{
			name:  "read",
			posts: []post{{VerbRead, 517, false}, {VerbRead, 5, false}},
			want: map[packet.Opcode]int{
				packet.OpReadRequest:        14 + 20 + 8 + 12 + 16 + 4,
				packet.OpReadResponseFirst:  14 + 20 + 8 + 12 + 4 + 256 + 4,
				packet.OpReadResponseMiddle: 14 + 20 + 8 + 12 + 256 + 4,
				packet.OpReadResponseLast:   14 + 20 + 8 + 12 + 4 + 5 + 3 + 4,
				packet.OpReadResponseOnly:   14 + 20 + 8 + 12 + 4 + 5 + 3 + 4,
			},
		},
		{
			name:  "atomic",
			posts: []post{{VerbFetchAdd, 8, false}, {VerbCompSwap, 8, false}},
			want: map[packet.Opcode]int{
				packet.OpFetchAdd:          14 + 20 + 8 + 12 + 28 + 4,
				packet.OpCompareSwap:       14 + 20 + 8 + 12 + 28 + 4,
				packet.OpAtomicAcknowledge: 14 + 20 + 8 + 12 + 4 + 8 + 4,
			},
		},
		{
			name:  "nak",
			posts: []post{{VerbWrite, 517, false}},
			want: map[packet.Opcode]int{
				packet.OpWriteFirst:  14 + 20 + 8 + 12 + 16 + 256 + 4,
				packet.OpWriteMiddle: 14 + 20 + 8 + 12 + 256 + 4,
				packet.OpWriteLast:   14 + 20 + 8 + 12 + 5 + 3 + 4,
				packet.OpAcknowledge: 14 + 20 + 8 + 12 + 4 + 4,
			},
			nak: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPair(t, defaultPairOpts())
			seen := map[packet.Opcode]bool{}
			sawNak, dropped := false, false
			p.relay.onForward = func(w []byte, fromA bool) relayAction {
				pkt := decode(t, w)
				op := pkt.BTH.Opcode
				want, ok := c.want[op]
				if !ok {
					t.Errorf("unexpected %v frame of %d bytes", op, len(w))
				} else if len(w) != want {
					t.Errorf("%v frame is %d bytes, want %d", op, len(w), want)
				}
				seen[op] = true
				if op == packet.OpAcknowledge && pkt.AETH.IsNak() {
					sawNak = true
				}
				if c.nak && op == packet.OpWriteMiddle && !dropped {
					dropped = true
					return relayDrop
				}
				return relayPass
			}
			_, _, mr := p.connect(t, mtu, 10, 7)
			for i, q := range c.posts {
				if q.verb == VerbSend || q.imm {
					p.bQP.PostRecv(RecvRequest{WRID: i})
				}
				if err := p.aQP.PostSend(WorkRequest{
					WRID: i, Verb: q.verb, Length: q.length, UseImm: q.imm,
					RemoteAddr: mr.Addr, RKey: mr.RKey,
				}); err != nil {
					t.Fatal(err)
				}
			}
			p.s.Run()
			for op := range c.want {
				if !seen[op] {
					t.Errorf("no %v frame was sent", op)
				}
			}
			if c.nak && !sawNak {
				t.Error("no NAK was sent")
			}
		})
	}

	// The ETS scheduler charges each granted packet's length: on a
	// Write-only requester, which sends nothing around the scheduler,
	// that is every byte the NIC sent.
	p := newPair(t, defaultPairOpts())
	_, _, mr := p.connect(t, mtu, 10, 7)
	runTransfer(t, p, VerbWrite, 4, 517, mr)
	reg := telemetry.NewRegistry()
	p.a.Publish(reg)
	var ets int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "A/ets.q0.bytes" {
			ets = c.Value
		}
	}
	if sent := int64(p.a.Counters.Get(CtrTxRoCEBytes)); ets != sent || sent == 0 {
		t.Errorf("ets.q0.bytes = %d, tx_roce_bytes = %d: want them equal and nonzero", ets, sent)
	}
}
