package analyzer

import (
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// ReconstructITER recomputes each data packet's (re)transmission round
// offline, using the same Last_PSN rule the event injector applies in
// the data plane (Figure 3): a data packet whose PSN is not larger than
// its connection direction's previous PSN starts a new round. The result
// is aligned with tr.Entries (zero for non-data packets).
//
// Offline reconstruction lets analyses distinguish originals from
// retransmissions in any captured trace — including pcaps from runs
// whose injector state is gone — and cross-checks the switch's ITER
// arithmetic.
func ReconstructITER(tr *trace.Trace) []uint32 {
	type state struct {
		lastPSN uint32
		iter    uint32
	}
	conns := map[trace.ConnKey]*state{}
	out := make([]uint32, len(tr.Entries))
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if !e.Opcode().IsData() {
			continue
		}
		k := e.Key()
		st, ok := conns[k]
		if !ok {
			st = &state{lastPSN: e.PSN(), iter: 1}
			conns[k] = st
			out[i] = 1
			continue
		}
		if !trace.PSNGreater(e.PSN(), st.lastPSN) {
			st.iter++
		}
		st.lastPSN = e.PSN()
		out[i] = st.iter
	}
	return out
}

// RetransStats summarizes per-connection retransmission activity derived
// from the reconstructed ITERs.
type RetransStats struct {
	Conn          trace.ConnKey
	DataPackets   int
	Retransmitted int // data packets in rounds > 1
	MaxIter       uint32
	// FirstRetrans is the switch timestamp of the first retransmitted
	// packet (zero when none).
	FirstRetrans sim.Time
}

// RetransmissionStats aggregates ITER reconstruction per connection
// direction.
func RetransmissionStats(tr *trace.Trace) []RetransStats {
	iters := ReconstructITER(tr)
	byConn := map[trace.ConnKey]*RetransStats{}
	var order []trace.ConnKey
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if !e.Opcode().IsData() {
			continue
		}
		k := e.Key()
		st, ok := byConn[k]
		if !ok {
			st = &RetransStats{Conn: k}
			byConn[k] = st
			order = append(order, k)
		}
		st.DataPackets++
		if iters[i] > 1 {
			st.Retransmitted++
			if st.FirstRetrans == 0 {
				st.FirstRetrans = e.Time()
			}
		}
		if iters[i] > st.MaxIter {
			st.MaxIter = iters[i]
		}
	}
	out := make([]RetransStats, 0, len(order))
	for _, k := range order {
		out = append(out, *byConn[k])
	}
	return out
}
