package analyzer

import (
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// RetransEvent is one recovered loss with its latency breakdown
// (Figure 5): the NACK-generation phase (receiver detects the gap →
// NACK/re-read leaves) and the NACK-reaction phase (NACK arrives at the
// sender → retransmission leaves). Timestamps come from the switch, so
// each phase carries a ±half-RTT deviation the paper notes; callers can
// subtract a pre-measured RTT/2 if desired.
type RetransEvent struct {
	Conn       trace.ConnKey
	DroppedPSN uint32
	DropTime   sim.Time

	// Fast-retransmission path (zero times when recovery was by
	// timeout only).
	TriggerTime sim.Time // first OOO packet creating the visible gap
	NackTime    sim.Time // NAK or re-read observed at the switch
	RetransTime sim.Time // retransmitted data packet observed

	// Timeout reports tail-loss recovery: no NACK was (or could be)
	// generated and the sender's RTO fired instead.
	Timeout bool
}

// GenLatency is the NACK-generation phase duration.
func (e *RetransEvent) GenLatency() sim.Duration {
	if e.NackTime == 0 || e.TriggerTime == 0 {
		return 0
	}
	return e.NackTime.Sub(e.TriggerTime)
}

// ReactLatency is the NACK-reaction phase duration.
func (e *RetransEvent) ReactLatency() sim.Duration {
	if e.RetransTime == 0 || e.NackTime == 0 {
		return 0
	}
	return e.RetransTime.Sub(e.NackTime)
}

// TotalLatency is drop-to-retransmission.
func (e *RetransEvent) TotalLatency() sim.Duration {
	if e.RetransTime == 0 {
		return 0
	}
	return e.RetransTime.Sub(e.DropTime)
}

// AnalyzeRetransmissions walks the trace and produces one RetransEvent
// per injector-dropped data packet, supporting both the NAK-triggered
// fast path (Write/Send) and the re-read path (Read), plus timeout
// recoveries for tail drops.
func AnalyzeRetransmissions(tr *trace.Trace) []RetransEvent {
	var events []RetransEvent
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if e.Meta.Event != packet.EventDrop || !e.Pkt.BTH.Opcode.IsData() {
			continue
		}
		ev := RetransEvent{
			Conn:       e.Key(),
			DroppedPSN: e.Pkt.BTH.PSN,
			DropTime:   e.Time(),
		}
		trigger, nack, retrans := tr.Recovery(i)
		if trigger != nil {
			ev.TriggerTime = trigger.Time() // first OOO arrival at receiver
		}
		if nack != nil {
			ev.NackTime = nack.Time()
		}
		if retrans != nil {
			ev.RetransTime = retrans.Time()
			// Tail drop: recovery happened with no NACK → timeout path.
			ev.Timeout = nack == nil
		}
		events = append(events, ev)
	}
	return events
}

// LatencyStats summarizes a set of durations.
type LatencyStats struct {
	N              int
	Min, Max, Mean sim.Duration
}

// Stats computes summary statistics over non-zero durations.
func Stats(ds []sim.Duration) LatencyStats {
	st := LatencyStats{}
	var sum sim.Duration
	for _, d := range ds {
		if d == 0 {
			continue
		}
		if st.N == 0 || d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		sum += d
		st.N++
	}
	if st.N > 0 {
		st.Mean = sum / sim.Duration(st.N)
	}
	return st
}
