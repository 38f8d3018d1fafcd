package rnic

import (
	"fmt"
	"sort"
	"strings"
)

// Transport selects the RoCE transport service type of a QP. The zero
// value is Reliable Connection, so existing configurations and tests
// that never mention a transport keep today's behavior.
type Transport int

const (
	// TransportRC is Reliable Connection: Go-back-N retransmission,
	// ACK/NAK generation, retransmission timeouts — the stack the paper
	// measures (§3–§6).
	TransportRC Transport = iota
	// TransportUC is Unreliable Connected: sequenced NAK-less delivery.
	// Out-of-sequence packets are silently dropped (the receiver resyncs
	// at the next First/Only packet) and send WQEs complete at transmit.
	TransportUC
	// TransportUD is Unreliable Datagram: independent single-MTU Send
	// datagrams with no sequencing and no acknowledgements; a drop is a
	// silent loss and completions fire at transmit.
	TransportUD
)

func (t Transport) String() string {
	switch t {
	case TransportRC:
		return "rc"
	case TransportUC:
		return "uc"
	case TransportUD:
		return "ud"
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// transportByName maps config spellings to transports. An empty string
// selects RC, matching the zero value of the `transport:` scenario field.
var transportByName = map[string]Transport{
	"rc": TransportRC,
	"uc": TransportUC,
	"ud": TransportUD,
}

// TransportNames returns the valid transport names, sorted.
func TransportNames() []string {
	names := make([]string, 0, len(transportByName))
	for n := range transportByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseTransport resolves a scenario `transport:` value. Unknown names
// list the valid transports (sorted), mirroring ProfileByName, so a typo
// in a config names its own fix.
func ParseTransport(s string) (Transport, error) {
	if s == "" {
		return TransportRC, nil
	}
	if t, ok := transportByName[s]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("rnic: unknown transport %q (known transports: %s)",
		s, strings.Join(TransportNames(), ", "))
}

// Reliable reports whether lost packets are recovered (ACKs, NAKs,
// retransmission timeouts). UC and UD treat a drop as a silent loss the
// analyzers must attribute differently.
func (t Transport) Reliable() bool { return t == TransportRC }

// Supports reports whether the verb is legal on the transport: RC
// carries every verb, UC Sends and Writes (Reads and atomics need RC's
// acknowledgements), UD Sends only (IB spec: no RDMA on datagram QPs).
func (t Transport) Supports(v Verb) bool {
	switch t {
	case TransportRC:
		return true
	case TransportUC:
		return v == VerbSend || v == VerbWrite
	case TransportUD:
		return v == VerbSend
	}
	return false
}

// SinglePacket reports whether every message must fit in one MTU, as a
// UD datagram does.
func (t Transport) SinglePacket() bool { return t == TransportUD }

// unreliableOnTransmit is the completion-at-transmit path UC and UD
// share: the transport offers no acknowledgements, so the send window
// advances and the WQE completes the moment its last packet is
// serialized. The ETS scheduler sets its busy horizon before it reports
// the packet sent, so posting follow-up work from inside the completion
// callback re-enters the scheduler safely.
func (qp *QP) unreliableOnTransmit(w *wqe, psn uint32) {
	next := psnAdd(psn, 1)
	if psnLT(qp.sndUna, next) {
		qp.sndUna = next
	}
	if psn == w.endPSN {
		qp.complete(w, StatusOK)
	}
}
