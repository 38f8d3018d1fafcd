// Package analyzer implements Lumina's built-in test suite (§4): the
// Go-back-N retransmission logic checker (a finite-state machine run
// over the reconstructed trace), the retransmission performance analyzer
// (Figure 5's NACK-generation / NACK-reaction breakdown), the CNP
// analyzer (generation, spacing, and rate-limiter scope inference), and
// the counter-consistency analyzer that cross-checks hardware counters
// against the trace.
package analyzer

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// Violation is one departure from the Go-back-N specification.
type Violation struct {
	Conn   trace.ConnKey
	Seq    uint64 // mirror sequence number where detected
	Time   sim.Time
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("[seq %d @%v] %s->%s qp=%d: %s", v.Seq, v.Time, v.Conn.Src, v.Conn.Dst, v.Conn.DstQPN, v.Reason)
}

// GBNReport is the retransmission logic checker's result.
type GBNReport struct {
	ConnsChecked int
	Events       int // gaps observed
	Violations   []Violation
}

// OK reports whether the implementation complied with the specification.
func (r *GBNReport) OK() bool { return len(r.Violations) == 0 }

// gbnState replays one direction's receiver per the Go-back-N
// specification.
type gbnState struct {
	key  trace.ConnKey
	init bool
	ePSN uint32

	// gap state
	inGap   bool
	gapPSN  uint32
	nakSeen bool // a NAK for gapPSN has been observed

	// late holds PSNs of delayed/reordered packets: mirrored at ingress
	// but delivered to the receiver later than their mirror position.
	// The receiver may accept them out of band, legitimately shifting
	// its first-missing PSN past them.
	late map[uint32]bool
}

// markLate records a delayed/reordered packet's PSN.
func (st *gbnState) markLate(psn uint32) {
	if st.late == nil {
		st.late = map[uint32]bool{}
	}
	st.late[psn] = true
}

// CheckGoBackN replays the trace through a Go-back-N receiver FSM per
// connection direction and validates the observed NAKs and
// retransmissions against the specification:
//
//   - a NAK (or, for Read, a re-issued request) must name the first
//     missing PSN;
//   - no NAK may be generated while packets arrive in order;
//   - the same NAK must not be repeated before any progress;
//   - retransmission must restart at the NAKed PSN (go-back-N, not
//     selective repeat).
//
// Packets the injector dropped or corrupted (see lost) never reached
// the receiver's transport, so the FSM skips them when advancing its
// expected PSN.
func CheckGoBackN(tr *trace.Trace) *GBNReport {
	rep := &GBNReport{}
	// order lists the streams as first seen, beside the map: whatever is
	// chosen among several streams is chosen in that order, never in the
	// map's, so a verdict cannot change from run to run.
	states := map[trace.ConnKey]*gbnState{}
	var order []*gbnState
	state := func(k trace.ConnKey) *gbnState {
		st, ok := states[k]
		if !ok {
			st = &gbnState{key: k}
			states[k] = st
			order = append(order, st)
			rep.ConnsChecked++
		}
		return st
	}
	// A control packet's data stream flows the opposite way.
	controlled := func(e *trace.Entry) *gbnState {
		return state(resolveDataKey(order, tr, e))
	}
	addViolation := func(st *gbnState, e *trace.Entry, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Conn: st.key, Seq: e.Meta().Seq, Time: e.Time(),
			Reason: fmt.Sprintf(format, args...),
		})
	}

	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Opcode()
		switch {
		case op.IsSend() || op.IsWrite() || op.IsReadResponse():
			st := state(e.Key())
			// Mirrors are taken at ingress, before the action applies:
			// lost packets never reach the receiver, and delayed or
			// reordered packets reach it later than their mirror
			// position. None of them advances the receiver's expected
			// PSN here (the late arrivals land out of order and a
			// Go-back-N receiver discards them; the visible gap is
			// filled by the retransmission, which IS in the trace).
			ev := e.Meta().Event
			latent := ev == packet.EventDelay || ev == packet.EventReorder
			psn := e.PSN()
			if !st.init {
				st.init = true
				st.ePSN = psn
			}
			if latent {
				st.markLate(psn)
			}
			if lost(ev) || latent {
				// Lost packets never reach the receiver; late packets
				// reach it after their mirror position. Neither advances
				// the replayed expected PSN here.
				continue
			}
			switch {
			case psn == st.ePSN:
				st.ePSN = trace.PSNAdd(st.ePSN, 1)
				if st.inGap && psn == st.gapPSN {
					// Gap filled: the receiver resumes. Spec requires
					// the retransmission to restart exactly here;
					// arriving at gapPSN satisfies it.
					st.inGap = false
					st.nakSeen = false
				}
			case trace.PSNLess(st.ePSN, psn):
				// Out-of-order arrival: Go-back-N receiver discards it.
				if !st.inGap {
					st.inGap = true
					st.gapPSN = st.ePSN
					st.nakSeen = false
					rep.Events++
				}
			default:
				// Duplicate (already delivered): allowed; receiver
				// re-acknowledges.
			}
		case op.IsAck() && e.AETH().Syndrome == packet.NakPSNSeqError:
			// NAK travels opposite to its data direction.
			st := controlled(e)
			nakPSN := e.PSN()
			switch {
			case !st.inGap:
				if st.late[nakPSN] {
					// The receiver's gap is at a late-delivered PSN the
					// replay could not see; adopt its view.
					st.inGap = true
					st.gapPSN = nakPSN
					st.nakSeen = true
					continue
				}
				addViolation(st, e, "NAK(psn=%d) generated with no outstanding gap", nakPSN)
			case nakPSN != st.gapPSN:
				if st.late[st.gapPSN] && trace.PSNLess(st.gapPSN, nakPSN) {
					// Late originals filled the replayed gap out of band;
					// the receiver's first missing moved forward.
					for p := st.gapPSN; trace.PSNLess(p, nakPSN); p = trace.PSNAdd(p, 1) {
						delete(st.late, p)
					}
					st.gapPSN = nakPSN
					st.nakSeen = true
					continue
				}
				addViolation(st, e, "NAK names PSN %d, first missing is %d", nakPSN, st.gapPSN)
			case st.nakSeen:
				addViolation(st, e, "repeated NAK(psn=%d) without progress", nakPSN)
			default:
				st.nakSeen = true
			}
		case op.IsReadRequest():
			// A re-issued read request is Read traffic's NAK equivalent.
			// Its data direction is the reverse of the request's.
			st := controlled(e)
			if st.init && st.inGap {
				reqPSN := e.PSN()
				if trace.PSNLess(reqPSN, st.ePSN) || reqPSN == st.gapPSN {
					if reqPSN != st.gapPSN {
						addViolation(st, e, "re-read names PSN %d, first missing is %d", reqPSN, st.gapPSN)
					} else if st.nakSeen {
						addViolation(st, e, "repeated re-read(psn=%d) without progress", reqPSN)
					} else {
						st.nakSeen = true
					}
				}
			}
		}
	}
	return rep
}

// resolveDataKey maps a control packet (NAK or re-read) to the
// connection key of the data stream it controls: same endpoints
// swapped. The data direction's destination QPN is unknown from the
// control packet alone — the trace carries only destination QPNs — and
// several QPs may share an IP pair, so the checker picks the tracked
// reversed-direction stream whose expected PSN is circularly closest to
// the control packet's PSN (the first seen among equally close ones;
// streams come in first-seen order); when no state exists yet, it scans
// the trace for the nearest data packet, and otherwise falls back to a
// fresh addresses-only key.
func resolveDataKey(streams []*gbnState, tr *trace.Trace, e *trace.Entry) trace.ConnKey {
	ctrlPSN := e.PSN()
	dataSrc, dataDst := e.Dst(), e.Src()
	var best *gbnState
	var bestDist uint32
	for _, st := range streams {
		if !st.init {
			continue
		}
		if st.key.Src != dataSrc || st.key.Dst != dataDst {
			continue
		}
		ref := st.ePSN
		if st.inGap {
			ref = st.gapPSN
		}
		d := psnDist(ctrlPSN, ref)
		if best == nil || d < bestDist {
			best, bestDist = st, d
		}
	}
	if best != nil && bestDist < 1<<20 {
		return best.key
	}
	// No tracked stream yet: locate the closest data packet in the trace.
	var bestKey trace.ConnKey
	found := false
	for i := range tr.Entries {
		d := &tr.Entries[i]
		op := d.Opcode()
		if !(op.IsSend() || op.IsWrite() || op.IsReadResponse()) {
			continue
		}
		if d.Src() != dataSrc || d.Dst() != dataDst {
			continue
		}
		dist := psnDist(d.PSN(), ctrlPSN)
		if !found || dist < bestDist {
			bestKey, bestDist, found = d.Key(), dist, true
		}
	}
	if found && bestDist < 1<<20 {
		return bestKey
	}
	return trace.ConnKey{Src: dataSrc, Dst: dataDst}
}

// psnDist is the circular distance between two 24-bit PSNs.
func psnDist(a, b uint32) uint32 {
	d := (a - b) & packet.PSNMask
	if d > packet.PSNMask/2 {
		d = packet.PSNMask + 1 - d
	}
	return d
}

// psnNear reports whether two PSNs plausibly belong to one connection's
// sequence space (within a 2^20 window).
func psnNear(a, b uint32) bool {
	return psnDist(a, b) < 1<<20
}
