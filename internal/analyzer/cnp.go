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
	ECNMarked map[netip.Addr]int
	// CNPs counts congestion notifications per sender IP.
	CNPs map[netip.Addr]int
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

// AnalyzeCNP inspects marking and notification behaviour in a trace.
func AnalyzeCNP(tr *trace.Trace) *CNPReport {
	rep := &CNPReport{ECNMarked: map[netip.Addr]int{}, CNPs: map[netip.Addr]int{}}
	// Keys with a zero DstQPN name an address pair: markedSeen records
	// CE data observed sender→receiver.
	markedSeen := map[trace.ConnKey]bool{}
	timesPerPort := map[netip.Addr][]sim.Time{}
	timesPerIP := map[trace.ConnKey][]sim.Time{}
	timesPerQP := map[trace.ConnKey][]sim.Time{}

	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Opcode()
		k := e.Key()
		pair := trace.ConnKey{Src: k.Src, Dst: k.Dst}
		switch {
		case op.IsData() && e.ECN() == packet.ECNCE && e.Meta().Event != packet.EventDrop:
			rep.ECNMarked[k.Dst]++
			markedSeen[pair] = true
		case op.IsCNP():
			rep.CNPs[k.Src]++
			// Orphan check: a CNP from src implies CE-marked data
			// dst→src was seen earlier.
			if !markedSeen[trace.ConnKey{Src: k.Dst, Dst: k.Src}] {
				rep.Orphans++
			}
			ts := e.Time()
			timesPerPort[k.Src] = append(timesPerPort[k.Src], ts)
			timesPerIP[pair] = append(timesPerIP[pair], ts)
			timesPerQP[k] = append(timesPerQP[k], ts)
		}
	}
	rep.MinIntervalPerPort = minGap(timesPerPort)
	rep.MinIntervalPerIP = minGap(timesPerIP)
	rep.MinIntervalPerQP = minGap(timesPerQP)
	return rep
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
