package analyzer

import (
	"fmt"
	"net/netip"

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
	Detail   string
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("%s %s: counter=%d trace=%d (%s)", i.Host, i.Counter, i.Counted, i.Observed, i.Detail)
}

// HostView gives the counter analyzer one NIC's identity and counters.
type HostView struct {
	Name     string
	IPs      []string // all GIDs owned by this host
	Counters map[string]uint64
}

// addrs parses the host's GIDs once, so the per-packet ownership test
// compares addresses instead of formatting them. A GID that is not an
// IP address could never equal a packet's and is left out.
func (h HostView) addrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(h.IPs))
	for _, s := range h.IPs {
		if a, err := netip.ParseAddr(s); err == nil {
			out = append(out, a)
		}
	}
	return out
}

func owns(addrs []netip.Addr, ip netip.Addr) bool {
	for _, a := range addrs {
		if a == ip {
			return true
		}
	}
	return false
}

// CheckCounters cross-checks each host's counters against the trace.
// It validates the counters the paper's analyzer supports: sent/received
// packets, sequence errors, out-of-sequence detections, CNPs sent, and
// retransmissions implied by duplicate read requests.
func CheckCounters(tr *trace.Trace, hosts ...HostView) []Inconsistency {
	var out []Inconsistency
	for _, h := range hosts {
		out = append(out, checkHost(tr, h)...)
	}
	return out
}

func checkHost(tr *trace.Trace, h HostView) []Inconsistency {
	var out []Inconsistency

	// First pass: estimate the path MTU from read-response payloads so
	// read-request PSN reservations (one PSN per response packet) can be
	// reconstructed from DMALen.
	mtu := estimateMTU(tr)

	// Packets transmitted by this host = trace entries whose source IP
	// belongs to it. (The injector mirrors at ingress, so every
	// transmitted packet appears exactly once, including ones later
	// dropped by injection.)
	var txSeen uint64
	var cnpsSeen uint64
	var naksSent uint64
	var impliedNaks uint64
	// nextReq tracks each connection's next expected fresh read-request
	// PSN; a request landing below it re-reads already-reserved space.
	nextReq := map[trace.ConnKey]*uint32{}
	// respOOO tracks whether out-of-order read responses were delivered
	// toward this host since the last re-read — the evidence that a
	// subsequent re-read proves an implied-NAK detection rather than a
	// plain timeout recovery (a tail loss yields a re-read with no OOO
	// response preceding it, and must not count).
	// Streams are also listed in first-seen order: a re-read is matched
	// against them in that order, never in the map's.
	respOOO := map[trace.ConnKey]*respStateT{}
	var respOrder []*respStateT
	mine := h.addrs()

	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Pkt.BTH.Opcode

		// Read responses delivered toward this host feed the OOO
		// evidence tracker. Injector-dropped copies never reached the
		// host, so they carry no evidence.
		if op.IsReadResponse() && owns(mine, e.Pkt.IP.Dst) && e.Meta.Event != packet.EventDrop {
			k := e.Key()
			st := respOOO[k]
			if st == nil {
				st = &respStateT{src: e.Pkt.IP.Src, dst: e.Pkt.IP.Dst}
				respOOO[k] = st
				respOrder = append(respOrder, st)
			}
			psn := e.Pkt.BTH.PSN
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

		if !owns(mine, e.Pkt.IP.Src) {
			continue
		}
		txSeen++
		switch {
		case op.IsCNP():
			cnpsSeen++
		case op.IsAck() && e.Pkt.AETH.IsNak() && e.Pkt.AETH.Syndrome == packet.NakPSNSeqError:
			naksSent++
		case op.IsReadRequest():
			k := e.Key()
			psn := e.Pkt.BTH.PSN
			exp, ok := nextReq[k]
			if !ok {
				v := psn
				nextReq[k] = &v
				exp = &v
			}
			if trace.PSNLess(psn, *exp) {
				// Re-read into reserved space. It proves an implied NAK
				// only when OOO responses were actually observed.
				if st := findRespState(respOrder, e, psn); st != nil && st.ooo {
					impliedNaks++
					st.ooo = false
					st.expected = psn // the requester rewound
				}
				continue // re-reads do not extend the reservation
			}
			npkts := uint32(1)
			if mtu > 0 && e.Pkt.RETH.DMALen > 0 {
				npkts = (e.Pkt.RETH.DMALen + uint32(mtu) - 1) / uint32(mtu)
			}
			*exp = trace.PSNAdd(psn, npkts)
		}
	}

	if c := h.Counters[rnic.CtrTxRoCEPackets]; c != txSeen {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrTxRoCEPackets, Counted: c, Observed: txSeen,
			Detail: "transmitted RoCE packets vs trace entries sourced at host",
		})
	}
	if c := h.Counters[rnic.CtrNpCnpSent]; c != cnpsSeen {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrNpCnpSent, Counted: c, Observed: cnpsSeen,
			Detail: "CNPs on the wire disagree with the NIC's sent-CNP counter",
		})
	}
	if c := h.Counters[rnic.CtrPacketSeqErr]; c != naksSent {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrPacketSeqErr, Counted: c, Observed: naksSent,
			Detail: "sequence-error NAKs on the wire vs packet_seq_err",
		})
	}
	// implied_nak_seq_err: every re-read preceded by out-of-order read
	// responses proves the requester detected the OOO arrival. A counter
	// below the trace-proven count is the CX4 Lx bug (§6.2.4); pure
	// timeout recoveries (tail losses) carry no OOO evidence and are not
	// counted.
	if c := h.Counters[rnic.CtrImpliedNakSeq]; impliedNaks > 0 && c < impliedNaks {
		out = append(out, Inconsistency{
			Host: h.Name, Counter: rnic.CtrImpliedNakSeq, Counted: c, Observed: impliedNaks,
			Detail: "OOO-evidenced re-reads on the wire exceed implied_nak_seq_err",
		})
	}
	return out
}

// respStateT tracks one read-response stream's expected PSN and whether
// out-of-order deliveries are pending as implied-NAK evidence.
type respStateT struct {
	src, dst netip.Addr // the responses' direction
	init     bool
	expected uint32
	ooo      bool
}

// findRespState links a re-read request to its response stream: among
// the streams (in first-seen order) of the reversed IP pair whose PSN
// space is near the re-read PSN, the one whose expected PSN is nearest,
// the first seen among equally near ones.
func findRespState(streams []*respStateT, e *trace.Entry, psn uint32) *respStateT {
	var best *respStateT
	var bestDist uint32
	for _, st := range streams {
		if st.src != e.Pkt.IP.Dst || st.dst != e.Pkt.IP.Src || !psnNear(st.expected, psn) {
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
		op := e.Pkt.BTH.Opcode
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
		if p := e.OrigLen - hdr - int(e.Pkt.BTH.PadCount); p > mtu {
			mtu = p
		}
	}
	return mtu
}
