package analyzer

import (
	"net/netip"
	"slices"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// CNPReport is the congestion-notification analyzer's result (§4
// "Congestion notification", §6.3's hidden behaviours).
type CNPReport struct {
	// ECNMarked counts CE-marked data packets per notification-point IP
	// (the receiver that should react).
	ECNMarked map[string]int
	// CNPs counts congestion notifications per sender IP.
	CNPs map[string]int
	// MinIntervalPerPort / PerDstIP / PerQP are the smallest observed
	// gaps between consecutive CNPs grouped at each scope. Comparing
	// them against a configured limit infers the hardware's rate-limiter
	// granularity.
	MinIntervalPerPort sim.Duration
	MinIntervalPerIP   sim.Duration
	MinIntervalPerQP   sim.Duration

	// Orphans counts CNPs with no preceding CE-marked packet in the
	// opposite direction — spec violations.
	Orphans int
}

// addrPair is one direction between two addresses; connDir adds the
// destination QP, naming a connection direction without the strings
// of a trace.ConnKey.
type addrPair struct{ src, dst netip.Addr }

type connDir struct {
	addrPair
	qpn uint32
}

// AnalyzeCNP inspects marking and notification behaviour in a trace.
func AnalyzeCNP(tr *trace.Trace) *CNPReport {
	rep := &CNPReport{}
	marked := map[netip.Addr]int{}    // CE-marked data per receiver
	cnps := map[netip.Addr]int{}      // CNPs per sender
	markedSeen := map[addrPair]bool{} // CE data observed sender→receiver
	timesPerPort := map[netip.Addr][]sim.Time{}
	timesPerIP := map[addrPair][]sim.Time{}
	timesPerQP := map[connDir][]sim.Time{}

	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Pkt.BTH.Opcode
		src, dst := e.Pkt.IP.Src, e.Pkt.IP.Dst
		switch {
		case op.IsData() && e.Pkt.IP.ECN == packet.ECNCE && e.Meta.Event != packet.EventDrop:
			marked[dst]++
			markedSeen[addrPair{src, dst}] = true
		case op.IsCNP():
			cnps[src]++
			// Orphan check: a CNP from src implies CE-marked data
			// dst→src was seen earlier.
			if !markedSeen[addrPair{dst, src}] {
				rep.Orphans++
			}
			ts := e.Time()
			timesPerPort[src] = append(timesPerPort[src], ts)
			timesPerIP[addrPair{src, dst}] = append(timesPerIP[addrPair{src, dst}], ts)
			k := connDir{addrPair{src, dst}, e.Pkt.BTH.DestQP}
			timesPerQP[k] = append(timesPerQP[k], ts)
		}
	}
	rep.ECNMarked = byAddrString(marked)
	rep.CNPs = byAddrString(cnps)
	rep.MinIntervalPerPort = minGap(timesPerPort)
	rep.MinIntervalPerIP = minGap(timesPerIP)
	rep.MinIntervalPerQP = minGap(timesPerQP)
	return rep
}

// byAddrString re-keys per-address counts by the address's string form.
func byAddrString(m map[netip.Addr]int) map[string]int {
	out := make(map[string]int, len(m))
	for a, n := range m {
		out[a.String()] = n
	}
	return out
}

// InferScope classifies the rate-limiter granularity given the
// configured (or hypothesized) minimum interval: the finest scope whose
// observed per-group minimum gap still respects the limit. It requires
// traffic with at least two QPs (and ideally two destination IPs) to
// discriminate.
func (r *CNPReport) InferScope(limit sim.Duration) string {
	const slack = 9 // tolerate 10% under-measurement from switch timestamping
	ok := func(g sim.Duration) bool { return g == 0 || g >= limit*slack/10 }
	switch {
	case ok(r.MinIntervalPerPort):
		return "per-port"
	case ok(r.MinIntervalPerIP):
		return "per-dst-ip"
	case ok(r.MinIntervalPerQP):
		return "per-qp"
	default:
		return "unlimited"
	}
}

// TotalCNPs sums notifications across senders.
func (r *CNPReport) TotalCNPs() int {
	n := 0
	for _, v := range r.CNPs {
		n += v
	}
	return n
}

func minGap[K comparable](groups map[K][]sim.Time) sim.Duration {
	var min sim.Duration
	for _, ts := range groups {
		if len(ts) < 2 {
			continue
		}
		slices.Sort(ts)
		for i := 1; i < len(ts); i++ {
			g := ts[i].Sub(ts[i-1])
			if min == 0 || g < min {
				min = g
			}
		}
	}
	return min
}
