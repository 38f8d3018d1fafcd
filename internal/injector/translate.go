package injector

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// TranslateIntents converts user-relative event intents (Listing 2) into
// exact match-action rules using the runtime connection metadata — the
// stateless control-plane translation of §3.3 and Figure 2:
//
//	relative QPN  → the (qpn-1)-th exchanged connection
//	relative PSN  → requester IPSN + (psn-1)
//	direction     → for Read, data packets flow responder → requester;
//	                for Send/Write, requester → responder
//	every         → expanded into one rule per matching packet index,
//	                bounded by the connection's total packet count
//
// totalPkts is the number of first-transmission data packets per
// connection (bounding 'every' expansion). The events are as
// config.Validate leaves them, their iter defaults filled in.
func TranslateIntents(events []config.Event, verb string, conns []ConnMeta, totalPkts int) ([]Rule, error) {
	var rules []Rule
	for i, ev := range events {
		if ev.QPN < 1 || ev.QPN > len(conns) {
			return nil, fmt.Errorf("injector: event %d: qpn %d out of range (have %d connections)", i, ev.QPN, len(conns))
		}
		action, ok := packet.ParseEventType(ev.Type)
		if !ok || action == packet.EventNone {
			return nil, fmt.Errorf("injector: event %d: unknown type %q", i, ev.Type)
		}
		m := conns[ev.QPN-1]

		indices := []int{ev.PSN}
		if ev.Every > 0 {
			indices = indices[:0]
			for p := ev.PSN; p <= totalPkts; p += ev.Every {
				indices = append(indices, p)
			}
		}
		for _, rel := range indices {
			if rel < 1 {
				return nil, fmt.Errorf("injector: event %d: psn %d must be >= 1", i, rel)
			}
			wirePSN := (m.ReqIPSN + uint32(rel-1)) & packet.PSNMask
			r := Rule{
				PSN: wirePSN, Iter: uint32(ev.Iter), Action: action,
				Delay:         sim.Duration(ev.DelayUs) * sim.Microsecond,
				ReorderOffset: ev.Offset,
			}
			if verb == "read" {
				// Data packets are read responses: responder → requester.
				r.SrcIP, r.DstIP, r.DstQPN = m.RespIP, m.ReqIP, m.ReqQPN
			} else {
				r.SrcIP, r.DstIP, r.DstQPN = m.ReqIP, m.RespIP, m.RespQPN
			}
			rules = append(rules, r)
		}
	}
	return rules, nil
}
