package rnic

import (
	"math/rand"
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
)

// fifo is the specification txq is held to: one slot per packet, each
// descriptor stored as it was pushed.
type fifo []txPkt

func (f *fifo) push(p txPkt) { *f = append(*f, p) }

func (f *fifo) pop() txPkt {
	p := (*f)[0]
	*f = (*f)[1:]
	return p
}

// TestTxQueueMatchesPerPacketFIFO drives a txq and a fifo with the same
// seeded sequences of what QPs enqueue — data packets walking WQEs laid
// end to end in PSN space (the PSN wrapping inside one), read responses
// from index 0 or re-read from a middle index, interleaved ACKs and
// atomic ACKs — with pops and flushes at random points, and requires the
// same packet from every pop and the same length after every step.
func TestTxQueueMatchesPerPacketFIFO(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Contiguous WQEs of every data verb and shape, so a run that
		// crossed a WQE boundary would show.
		var wqes []*wqe
		psn := uint32(packet.PSNMask - 5)
		for k := 0; k < 6; k++ {
			length := 1 + rng.Intn(6*256)
			npkts := (length + 255) / 256
			verb := []Verb{VerbWrite, VerbSend}[rng.Intn(2)]
			wqes = append(wqes, &wqe{
				req:      WorkRequest{Verb: verb, Length: length, UseImm: rng.Intn(2) == 0},
				startPSN: psn, endPSN: psnAdd(psn, uint32(npkts-1)), npkts: int32(npkts),
			})
			psn = psnAdd(psn, uint32(npkts))
		}
		reads := []readCtx{
			{startPSN: 100, npkts: 5, length: 4*256 + 7},
			{startPSN: 105, npkts: 1, length: 3},
			{startPSN: packet.PSNMask - 1, npkts: 4, length: 4 * 256},
		}
		dataAt := func(w *wqe, i int) txPkt {
			p := psnAdd(w.startPSN, uint32(i))
			return txPkt{kind: txData, w: w, psn: p}
		}
		respAt := func(ctx readCtx, i int) txPkt {
			return txPkt{kind: txReadResp, ctx: ctx, i: i, psn: psnAdd(ctx.startPSN, uint32(i))}
		}

		var q txq
		var want fifo
		push := func(p txPkt) {
			q.push(p)
			want.push(p)
		}
		wi, i := 0, 0 // the next data packet: wqes[wi], index i
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // data packets, as pump hands them over
				for n := 1 + rng.Intn(12); n > 0 && wi < len(wqes); n-- {
					push(dataAt(wqes[wi], i))
					if i++; i == int(wqes[wi].npkts) {
						wi, i = wi+1, 0
					}
				}
			case op == 3: // a read's responses, from its start or a re-read offset
				ctx := reads[rng.Intn(len(reads))]
				for i := rng.Intn(ctx.npkts); i < ctx.npkts; i++ {
					push(respAt(ctx, i))
				}
			case op == 4:
				push(txPkt{kind: txAck, psn: rng.Uint32() & packet.PSNMask, syndrome: uint8(rng.Intn(256)), msn: rng.Uint32() & packet.PSNMask})
			case op == 5:
				push(txPkt{kind: txAtomicAck, psn: rng.Uint32() & packet.PSNMask, msn: rng.Uint32() & packet.PSNMask, orig: rng.Uint64()})
			case op == 6: // flush, and a Go-back-N restart from an earlier WQE
				q.reset()
				want = want[:0]
				wi, i = rng.Intn(wi+1), 0
				if wi < len(wqes) {
					i = rng.Intn(int(wqes[wi].npkts))
				}
			default:
				for n := rng.Intn(8); n > 0 && len(want) > 0; n-- {
					got, exp := q.pop(), want.pop()
					if got.kind != exp.kind || got.psn != exp.psn || got.i != exp.i ||
						got.msn != exp.msn || got.w != exp.w || got.ctx != exp.ctx || got.syndrome != exp.syndrome || got.orig != exp.orig {
						t.Fatalf("seed %d step %d: popped %+v, want %+v", seed, step, got, exp)
					}
				}
			}
			if q.len() != len(want) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, q.len(), len(want))
			}
		}
	}
}
