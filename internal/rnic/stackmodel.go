package rnic

import (
	"fmt"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/packet"
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

// StackModel is the transport-engine seam carved out of the QP FSM: the
// per-transport transmit/receive/completion behaviors that used to be
// fused into qp.go. Per-QP state (PSN windows, receive queue, timers)
// stays on QP; a StackModel is a stateless singleton that interprets
// that state, so registering a second transport never perturbs the
// first. RC is the reference implementation; UC and UD reuse the same
// wire format, scheduler, pacing, and coverage machinery while swapping
// the loss-handling semantics.
type StackModel interface {
	// Transport identifies the model.
	Transport() Transport
	// Name is the config spelling ("rc", "uc", "ud").
	Name() string
	// Reliable reports whether lost packets are recovered (ACKs, NAKs,
	// retransmission timeouts). Unreliable transports treat a drop as a
	// silent loss the analyzers must attribute differently.
	Reliable() bool
	// CompletionAtTransmit reports whether send WQEs complete when their
	// last packet is serialized onto the wire rather than when it is
	// acknowledged.
	CompletionAtTransmit() bool
	// Supports reports whether the verb is legal on this transport.
	Supports(v Verb) bool

	// validateSend rejects work requests the transport cannot carry
	// (beyond the verb check), e.g. multi-packet UD datagrams.
	validateSend(qp *QP, req WorkRequest, npkts int) error
	// handlePacket processes one transport packet addressed to qp; the
	// connected/errored guard has already passed.
	handlePacket(qp *QP, pkt *packet.Packet)
	// onTransmit runs after data packet psn of w is serialized onto the
	// wire — the hook where completion-at-transmit transports advance
	// their window and complete WQEs.
	onTransmit(qp *QP, w *wqe, psn uint32)
	// armTimer (re)arms or cancels the retransmission timer; a no-op on
	// transports that never retransmit.
	armTimer(qp *QP)
}

// stackModels holds the singleton engines, indexed by Transport.
var stackModels = [...]StackModel{
	TransportRC: rcModel{},
	TransportUC: ucModel{},
	TransportUD: udModel{},
}

// stackModelFor returns the singleton engine for t.
func stackModelFor(t Transport) StackModel {
	if int(t) < 0 || int(t) >= len(stackModels) {
		// invariant: a QP's Transport is the zero value (RC), a Transport constant, or ParseTransport's result, which config.Validate and the orchestrator's option check run first.
		panic(fmt.Sprintf("rnic: no stack model for transport %d", int(t)))
	}
	return stackModels[t]
}

// --- RC: the reference implementation ---

// rcModel adapts the Reliable Connection engine — the original QP FSM —
// to the StackModel seam. Every hook delegates to the rc-prefixed QP
// methods so the refactor is pure code motion: an RC run produces
// byte-identical artifacts before and after the seam.
type rcModel struct{}

func (rcModel) Transport() Transport       { return TransportRC }
func (rcModel) Name() string               { return "rc" }
func (rcModel) Reliable() bool             { return true }
func (rcModel) CompletionAtTransmit() bool { return false }
func (rcModel) Supports(Verb) bool         { return true }

func (rcModel) validateSend(*QP, WorkRequest, int) error { return nil }

func (rcModel) handlePacket(qp *QP, pkt *packet.Packet) { qp.rcDispatch(pkt) }

// RC completes at acknowledgement, not transmit; nothing to do here.
func (rcModel) onTransmit(*QP, *wqe, uint32) {}

func (rcModel) armTimer(qp *QP) { qp.rcArmTimer() }

// unreliableOnTransmit is the completion-at-transmit path UC and UD
// share: the transport offers no acknowledgements, so the send window
// advances and the WQE completes the moment its last packet is
// serialized. The ETS scheduler sets its busy horizon before asking for
// the bytes, so posting follow-up work from inside the completion
// callback re-enters the scheduler safely.
func unreliableOnTransmit(qp *QP, w *wqe, psn uint32) {
	next := psnAdd(psn, 1)
	if psnLT(qp.sndUna, next) {
		qp.sndUna = next
	}
	if psn == w.endPSN {
		qp.complete(w, StatusOK)
	}
}
