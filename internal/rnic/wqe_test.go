package rnic

import (
	"bytes"
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

// wqeForScan is the lookup wqeFor replaced, kept as its reference: the
// first WQE in post order whose PSN range holds psn by the half-space
// compare.
func wqeForScan(qp *QP, psn uint32) *wqe {
	for _, w := range qp.wqes {
		if !psnLT(psn, w.startPSN) && !psnLT(w.endPSN, psn) {
			return w
		}
	}
	return nil
}

// wqeHistoryMax bounds how many WQEs one fuzz input posts, so a history
// spans at most wqeHistoryMax·64 PSNs.
const wqeHistoryMax = 256

// FuzzWQEForMatchesScan posts a history of Writes decoded from sizes,
// one WQE of 1 + b%64 packets per byte b, from an IPSN of ipsn's low 24
// bits, and holds wqeFor to wqeForScan on every PSN from two before the
// first WQE's start to two past nextPSN. Histories span under 2^14 PSNs,
// far below the 2^23 where the scan's half-space compare starts to call
// a one-packet WQE exactly half the space away a match.
func FuzzWQEForMatchesScan(f *testing.F) {
	f.Add(uint32(0), []byte{0})
	f.Add(uint32(1000), []byte{2, 0, 63, 5, 5, 1})
	f.Add(uint32(packet.PSNMask), []byte{0, 0, 3})            // the second WQE starts at PSN 0
	f.Add(uint32(packet.PSNMask-40), []byte{9, 20, 63, 0, 7}) // a WQE straddles the wrap
	f.Add(uint32(packet.PSNMask-2), bytes.Repeat([]byte{1}, 9))
	f.Fuzz(func(t *testing.T, ipsn uint32, sizes []byte) {
		if len(sizes) == 0 || len(sizes) > wqeHistoryMax {
			return
		}
		p := newPair(t, defaultPairOpts())
		qa, _, mr := p.connect(t, 256, 10, 7)
		ipsn &= packet.PSNMask
		qa.IPSN, qa.nextPSN, qa.sndUna, qa.sendPtr, qa.maxSent = ipsn, ipsn, ipsn, ipsn, ipsn
		for i, b := range sizes {
			wr := WorkRequest{WRID: i, Verb: VerbWrite, Length: (1 + int(b%64)) * 256, RemoteAddr: mr.Addr, RKey: mr.RKey}
			if err := qa.PostSend(wr); err != nil {
				t.Fatalf("PostSend %d: %v", i, err)
			}
		}
		span := psnSub(qa.nextPSN, ipsn)
		for d := uint32(0); d < span+5; d++ {
			psn := psnSub(ipsn+d, 2)
			if got, want := qa.wqeFor(psn), wqeForScan(qa, psn); got != want {
				t.Fatalf("PSN %d (IPSN %d, %d WQEs): wqeFor %s, scan %s", psn, ipsn, len(qa.wqes), wqeName(qa, got), wqeName(qa, want))
			}
		}
	})
}

// wqeName names w by its index in qp.wqes and its PSN range.
func wqeName(qp *QP, w *wqe) string {
	if w == nil {
		return "nil"
	}
	return fmt.Sprintf("WQE %d [%d, %d]", slices.Index(qp.wqes, w), w.startPSN, w.endPSN)
}
