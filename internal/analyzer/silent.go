package analyzer

import (
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// SilentLoss is one injector-dropped data packet on an unreliable
// transport (UC/UD). On those QPs the correct hardware behavior is to
// do nothing: no NAK on the wire and no retransmission of the dropped
// PSN. Observing either is an anomaly — it means the device ran RC
// recovery machinery on a transport that must not have any.
type SilentLoss struct {
	Conn     trace.ConnKey `json:"conn"`
	PSN      uint32        `json:"psn"`
	Seq      uint64        `json:"seq"`
	DropTime sim.Time      `json:"drop_time_ns"`

	// Retransmitted reports a later same-connection data packet carrying
	// the dropped PSN; NAKed reports a reverse-direction sequence-error
	// NAK near the dropped PSN. Both must stay false.
	Retransmitted bool `json:"retransmitted,omitempty"`
	NAKed         bool `json:"naked,omitempty"`
}

// Silent reports whether the loss stayed silent, as UC/UD require.
func (l *SilentLoss) Silent() bool { return !l.Retransmitted && !l.NAKed }

// AnalyzeSilentLoss walks the trace and produces one SilentLoss per
// injector-dropped data packet destined to a QP in unreliable (the
// DstQPN set the traffic layer reports for UC/UD connections). A nil or
// empty set yields nil — RC runs have no silent-loss contract to check.
func AnalyzeSilentLoss(tr *trace.Trace, unreliable map[uint32]bool) []SilentLoss {
	if tr == nil || len(unreliable) == 0 {
		return nil
	}
	var out []SilentLoss
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if e.Meta().Event != packet.EventDrop || !e.Opcode().IsData() {
			continue
		}
		if !unreliable[e.DestQP()] {
			continue
		}
		l := SilentLoss{
			Conn:     e.Key(),
			PSN:      e.PSN(),
			Seq:      e.Meta().Seq,
			DropTime: e.Time(),
		}
		for j := i + 1; j < len(tr.Entries); j++ {
			n := &tr.Entries[j]
			op := n.Opcode()
			if n.Key() == e.Key() && op.IsData() && n.PSN() == l.PSN {
				l.Retransmitted = true
			}
			if n.Reverses(e) && op.IsAck() && n.AETH().Syndrome == packet.NakPSNSeqError &&
				psnNear(n.PSN(), l.PSN) {
				l.NAKed = true
			}
			if l.Retransmitted && l.NAKed {
				break
			}
		}
		out = append(out, l)
	}
	return out
}
