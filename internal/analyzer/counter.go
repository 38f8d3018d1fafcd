package analyzer

import (
	"fmt"
	"net/netip"
	"slices"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/trace"
)

// Inconsistency is one disagreement between a hardware counter and the
// ground-truth packet trace — the §6.2.4 bug class ("these bugs do not
// directly cause performance impairments, but they can significantly
// mislead operators").
type Inconsistency struct {
	Host     string
	Counter  string
	Counted  uint64 // what the NIC reports
	Observed uint64 // what the trace proves happened
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("%s %s: NIC %d, trace %d", i.Host, i.Counter, i.Counted, i.Observed)
}

// HostView gives the counter analyzer one side of a run: its hosts'
// addresses and their summed counters.
type HostView struct {
	Name     string
	IPs      []netip.Addr // every GID the side's hosts own
	Counters map[string]uint64
}

// checkCounters cross-checks each side's counters against the trace.
// It validates the counters the paper's analyzer supports: sent
// packets, sequence errors, CNPs sent, and retransmissions implied by
// duplicate read requests. The per-connection state is reused across
// sides.
func checkCounters(tr *trace.Trace, hosts []HostView) []Inconsistency {
	if len(hosts) == 0 {
		return nil
	}
	// Estimate the path MTU from read-response payloads, once, so
	// read-request PSN reservations (one PSN per response packet) can be
	// reconstructed from DMALen.
	mtu := estimateMTU(tr)
	// nextReq tracks each connection's next expected fresh read-request
	// PSN; a request landing below it re-reads already-reserved space.
	nextReq := map[trace.ConnKey]uint32{}
	// streamOf indexes streams, each read-response stream delivered
	// toward the side in first-seen order: a re-read is matched against
	// them in that order, never in the map's.
	streamOf := map[trace.ConnKey]int{}
	var streams []respState
	var out []Inconsistency
	for _, h := range hosts {
		clear(nextReq)
		clear(streamOf)
		streams = streams[:0]
		// Packets transmitted by this side = trace entries whose source
		// IP belongs to it. (The injector mirrors at ingress, so every
		// transmitted packet appears exactly once, including ones later
		// dropped by injection.)
		var txSeen, cnpsSeen, naksSent, impliedNaks uint64
		for i := range tr.Entries {
			e := &tr.Entries[i]
			op := e.Opcode()
			k := e.Key()

			// Read responses delivered toward this side feed the
			// out-of-order evidence: a re-read proves an implied-NAK
			// detection only after OOO responses, while a tail loss
			// yields a re-read with none and must not count.
			// Injector-dropped copies never reached the host, so they
			// carry no evidence.
			if op.IsReadResponse() && slices.Contains(h.IPs, k.Dst) && e.Meta().Event != packet.EventDrop {
				j, ok := streamOf[k]
				if !ok {
					j = len(streams)
					streamOf[k] = j
					streams = append(streams, respState{src: k.Src, dst: k.Dst})
				}
				streams[j].observe(e.PSN())
			}

			if !slices.Contains(h.IPs, k.Src) {
				continue
			}
			txSeen++
			switch {
			case op.IsCNP():
				cnpsSeen++
			case op.IsAck() && e.AETH().Syndrome == packet.NakPSNSeqError:
				naksSent++
			case op.IsReadRequest():
				psn := e.PSN()
				exp, ok := nextReq[k]
				if !ok {
					exp = psn
				}
				if trace.PSNLess(psn, exp) {
					// Re-read into reserved space. It proves an implied
					// NAK only when OOO responses were actually observed.
					if st := findRespState(streams, e, psn); st != nil && st.ooo {
						impliedNaks++
						st.ooo = false
						st.expected = psn // the requester rewound
					}
					continue // re-reads do not extend the reservation
				}
				npkts := uint32(1)
				if mtu > 0 && e.DMALen() > 0 {
					npkts = (e.DMALen() + uint32(mtu) - 1) / uint32(mtu)
				}
				nextReq[k] = trace.PSNAdd(psn, npkts)
			}
		}
		out = h.judge(out, txSeen, cnpsSeen, naksSent, impliedNaks)
	}
	return out
}

// judge appends the side's disagreements with the trace counts to out.
func (h HostView) judge(out []Inconsistency, txSeen, cnpsSeen, naksSent, impliedNaks uint64) []Inconsistency {
	if c := h.Counters[rnic.CtrTxRoCEPackets]; c != txSeen {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrTxRoCEPackets, Counted: c, Observed: txSeen,
		})
	}
	if c := h.Counters[rnic.CtrNpCnpSent]; c != cnpsSeen {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrNpCnpSent, Counted: c, Observed: cnpsSeen,
		})
	}
	if c := h.Counters[rnic.CtrPacketSeqErr]; c != naksSent {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrPacketSeqErr, Counted: c, Observed: naksSent,
		})
	}
	// implied_nak_seq_err: every re-read preceded by out-of-order read
	// responses proves the requester detected the OOO arrival. A counter
	// below the trace-proven count is the CX4 Lx bug (§6.2.4).
	if c := h.Counters[rnic.CtrImpliedNakSeq]; impliedNaks > 0 && c < impliedNaks {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrImpliedNakSeq, Counted: c, Observed: impliedNaks,
		})
	}
	return out
}

// respState tracks one read-response stream's expected PSN and whether
// out-of-order deliveries are pending as implied-NAK evidence.
type respState struct {
	src, dst netip.Addr // the responses' direction
	init     bool
	expected uint32
	ooo      bool
}

// observe advances the stream past one delivered response.
func (st *respState) observe(psn uint32) {
	switch {
	case !st.init:
		st.init = true
		st.expected = trace.PSNAdd(psn, 1)
	case psn == st.expected:
		st.expected = trace.PSNAdd(psn, 1)
	case trace.PSNLess(st.expected, psn):
		st.ooo = true
	}
}

// findRespState links a re-read request to its response stream: among
// the streams (in first-seen order) of the reversed IP pair whose PSN
// space is near the re-read PSN, the one whose expected PSN is nearest,
// the first seen among equally near ones.
func findRespState(streams []respState, e *trace.Entry, psn uint32) *respState {
	var best *respState
	var bestDist uint32
	for i := range streams {
		st := &streams[i]
		if st.src != e.Dst() || st.dst != e.Src() || !psnNear(st.expected, psn) {
			continue
		}
		if d := psnDist(st.expected, psn); best == nil || d < bestDist {
			best, bestDist = st, d
		}
	}
	return best
}

// estimateMTU infers the path MTU as the largest data payload observed
// (from untrimmed original lengths), so reservation arithmetic does not
// require out-of-band configuration.
func estimateMTU(tr *trace.Trace) int {
	mtu := 0
	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Opcode()
		if !op.IsData() || op.IsReadRequest() {
			continue
		}
		hdr := packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize + packet.ICRCSize
		if op.HasRETH() {
			hdr += packet.RETHSize
		}
		if op.HasAETH() {
			hdr += packet.AETHSize
		}
		if op.HasImm() {
			hdr += packet.ImmSize
		}
		if p := e.OrigLen() - hdr - int(e.PadCount()); p > mtu {
			mtu = p
		}
	}
	return mtu
}
