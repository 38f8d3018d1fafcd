package trace

import "github.com/lumina-sim/lumina/internal/packet"

// Recovery walks forward from the injected loss at index di and returns
// the wire-visible reactions: the out-of-order arrival that exposed the
// gap, the NAK (or, for a lost read response, the re-read request) and
// the retransmission. Any of the three may be nil; the scan stops at the
// retransmission.
func (t *Trace) Recovery(di int) (trigger, nack, retrans *Entry) {
	drop := &t.Entries[di]
	isRead := drop.Pkt.BTH.Opcode.IsReadResponse()
	psn := drop.Pkt.BTH.PSN

	for i := di + 1; i < len(t.Entries); i++ {
		e := &t.Entries[i]
		op := e.Pkt.BTH.Opcode

		// Same-direction data after the drop. The retransmission is
		// observable at the switch even when the injector drops it again
		// (Listing 2's iter-2 drop), so it may be a dropped entry; the
		// trigger must actually reach the receiver, so it may not.
		if op.IsData() && e.SameConn(drop) {
			if e.Pkt.BTH.PSN == psn {
				return trigger, nack, e
			}
			if trigger == nil && e.Meta.Event != packet.EventDrop && PSNLess(psn, e.Pkt.BTH.PSN) {
				trigger = e
			}
		}

		// Control packets flow opposite the data direction.
		if nack == nil && e.Reverses(drop) {
			if !isRead && op.IsAck() && e.Pkt.AETH.IsNak() &&
				e.Pkt.AETH.Syndrome == packet.NakPSNSeqError && e.Pkt.BTH.PSN == psn {
				nack = e
			}
			if isRead && op.IsReadRequest() && e.Pkt.BTH.PSN == psn {
				nack = e
			}
		}
	}
	return trigger, nack, nil
}

// 24-bit circular PSN arithmetic (IB spec §9.7.2) for the offline
// consumers of a trace. The models under test (rnic, injector) keep
// their own copies: a checker must not share code with what it checks.

// PSNAdd returns a + n in PSN space.
func PSNAdd(a, n uint32) uint32 { return (a + n) & packet.PSNMask }

// PSNLess reports a < b within a half-space window.
func PSNLess(a, b uint32) bool {
	return a != b && (b-a)&packet.PSNMask < 1<<23
}

// PSNGreater reports a > b as the injector's Last_PSN rule compares:
// unlike PSNLess(b, a) it also holds when the two are exactly half the
// space apart.
func PSNGreater(a, b uint32) bool {
	return a != b && (b-a)&packet.PSNMask >= 1<<23
}
