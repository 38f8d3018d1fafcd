package rnic

import (
	"fmt"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
)

// nineWritesWire is the frame each PSN offset from the requester's IPSN
// must carry in TestWritesAcrossSlabsRewind, spelled out rather than
// derived: the opcode, and the RETH a first packet carries (VA and DMA
// length; zero on the others). WRID i is a Write of 2100 + 100·i bytes
// (three 1024-byte packets) at the responder's first MR, which sits at
// 1<<32, plus i·4 KiB.
var nineWritesWire = [27]struct {
	op  packet.Opcode
	va  uint64
	dma uint32
}{
	{packet.OpWriteFirst, 0x100000000, 2100}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100001000, 2200}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100002000, 2300}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100003000, 2400}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100004000, 2500}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100005000, 2600}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100006000, 2700}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100007000, 2800}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
	{packet.OpWriteFirst, 0x100008000, 2900}, {packet.OpWriteMiddle, 0, 0}, {packet.OpWriteLast, 0, 0},
}

// TestWritesAcrossSlabsRewind posts nine Writes, more than two WQE
// slabs of four hold, and drops data frames so Go-back-N rewinds across
// WQE boundaries. Each row spells the order of PSN offsets on the wire
// as inclusive runs; every frame must match nineWritesWire, and every WR
// must complete exactly once, OK, in WRID order, with its own byte
// count.
func TestWritesAcrossSlabsRewind(t *testing.T) {
	type drop struct{ psn, pass int } // PSN offset, and which transmission of it
	for _, row := range []struct {
		name  string
		drops []drop
		wire  [][2]int
	}{
		{"no loss", nil, [][2]int{{0, 26}}},
		{"middle of WQE 4", []drop{{10, 1}}, [][2]int{{0, 26}, {10, 26}}},
		{"last of WQE 4", []drop{{11, 1}}, [][2]int{{0, 26}, {11, 26}}},
		{"first of WQE 5", []drop{{12, 1}}, [][2]int{{0, 26}, {12, 26}}},
		{"WQE 4, then WQE 9 on the resend", []drop{{10, 1}, {24, 2}},
			[][2]int{{0, 26}, {10, 26}, {24, 26}}},
		{"WQE 2, then WQE 5 on the resend", []drop{{4, 1}, {13, 2}},
			[][2]int{{0, 26}, {4, 26}, {13, 26}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newPair(t, defaultPairOpts())
			qa, _, mr := p.connect(t, 1024, 10, 7)
			var wire []int
			sent := map[int]int{}
			drops := row.drops
			p.relay.onForward = func(w []byte, fromA bool) relayAction {
				pkt := decode(t, w)
				if !fromA || !pkt.BTH.Opcode.IsWrite() {
					return relayPass
				}
				off := int(psnSub(pkt.BTH.PSN, qa.IPSN))
				if off >= len(nineWritesWire) {
					t.Fatalf("frame %d: PSN offset %d outside the posted range", len(wire), off)
				}
				want := nineWritesWire[off]
				if pkt.BTH.Opcode != want.op || pkt.RETH.VA != want.va || pkt.RETH.DMALen != want.dma {
					t.Errorf("frame %d (PSN +%d) = %v VA %#x DMA %d, want %v VA %#x DMA %d",
						len(wire), off, pkt.BTH.Opcode, pkt.RETH.VA, pkt.RETH.DMALen,
						want.op, want.va, want.dma)
				}
				wire = append(wire, off)
				sent[off]++
				if len(drops) > 0 && drops[0].psn == off && drops[0].pass == sent[off] {
					drops = drops[1:]
					return relayDrop
				}
				return relayPass
			}
			var comps []Completion
			for i := 0; i < 9; i++ {
				wr := WorkRequest{
					WRID: i, Verb: VerbWrite, Length: 2100 + 100*i,
					RemoteAddr: mr.Addr + uint64(i)<<12, RKey: mr.RKey,
					OnComplete: func(c Completion) { comps = append(comps, c) },
				}
				if err := qa.PostSend(wr); err != nil {
					t.Fatalf("PostSend %d: %v", i, err)
				}
			}
			p.s.Run()

			if len(drops) > 0 {
				t.Errorf("drops never reached: %v", drops)
			}
			var want []int
			for _, run := range row.wire {
				for off := run[0]; off <= run[1]; off++ {
					want = append(want, off)
				}
			}
			if !slices.Equal(wire, want) {
				t.Fatalf("wire PSN offsets = %v, want %v", wire, want)
			}
			wantBytes := []int{2100, 2200, 2300, 2400, 2500, 2600, 2700, 2800, 2900}
			if len(comps) != len(wantBytes) {
				t.Fatalf("%d completions, want %d: %+v", len(comps), len(wantBytes), comps)
			}
			for i, c := range comps {
				if c.WRID != i || c.Status != StatusOK || c.Bytes != wantBytes[i] {
					t.Errorf("completion %d = WRID %d %v %d bytes, want WRID %d OK %d bytes",
						i, c.WRID, c.Status, c.Bytes, i, wantBytes[i])
				}
			}
		})
	}
}

func TestQPTrackIsTheFormattedName(t *testing.T) {
	for _, qpn := range []uint32{1, 0xf, 0x10, 0xabc, 0xfffff, 0x100000, 0x5a5a5a, packet.PSNMask} {
		if got, want := qpTrack("rnic-0", qpn), fmt.Sprintf("%s/qp-0x%06x", "rnic-0", qpn); got != want {
			t.Errorf("qpTrack(%#x) = %q, want %q", qpn, got, want)
		}
	}
}
