package rnic

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// relayAction tells the test relay what to do with a forwarded frame.
type relayAction int

const (
	relayPass relayAction = iota
	relayDrop
	relayECN
	relayCorrupt
)

// relay is a minimal in-the-middle forwarder used by unit tests to
// exercise loss, marking, and corruption without the full injector.
type relay struct {
	s         *sim.Simulator
	toA, toB  *sim.Port // relay-side ports facing each NIC
	onForward func(wire []byte, fromA bool) relayAction
	forwarded int
	dropped   int
}

// testPair wires two NICs through a relay and returns everything a test
// needs.
type testPair struct {
	s        *sim.Simulator
	a, b     *NIC
	relay    *relay
	aQP, bQP *QP
}

type pairOpts struct {
	profA, profB Profile
	setA, setB   Settings
	etsA         ETSConfig
	mtu          int
	timeoutExp   int
	retryCnt     int
	seed         int64
	hub          *telemetry.Hub // attached before the NICs are built, when set
}

func defaultPairOpts() pairOpts {
	profs := Profiles()
	return pairOpts{
		profA: profs[ModelSpec], profB: profs[ModelSpec],
		setA: DefaultSettings(), setB: DefaultSettings(),
		mtu: 1024, timeoutExp: 10, retryCnt: 7, seed: 1,
	}
}

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

// newPair builds A <-> relay <-> B with 100 ns propagation per hop.
func newPair(t testing.TB, o pairOpts) *testPair {
	t.Helper()
	s := sim.New(o.seed)
	if o.hub != nil {
		s.AttachHub(o.hub)
	}
	a := New(s, o.profA, Config{
		Name: "A", MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		IPs: []netip.Addr{ip("10.0.0.1")}, Set: o.setA, ETS: o.etsA,
	})
	b := New(s, o.profB, Config{
		Name: "B", MAC: packet.MAC{2, 0, 0, 0, 0, 2},
		IPs: []netip.Addr{ip("10.0.0.2")}, Set: o.setB,
	})
	gbps := o.profA.LinkGbps
	if o.profB.LinkGbps < gbps {
		gbps = o.profB.LinkGbps
	}
	aPort, rA := sim.Connect(s, "a", "relay-a", gbps, 100)
	rB, bPort := sim.Connect(s, "relay-b", "b", gbps, 100)
	a.AttachPort(aPort)
	b.AttachPort(bPort)
	r := &relay{s: s, toA: rA, toB: rB}
	rA.SetReceiver(func(w []byte) { r.forward(w, true) })
	rB.SetReceiver(func(w []byte) { r.forward(w, false) })
	return &testPair{s: s, a: a, b: b, relay: r}
}

// runFor fires every event due within d and leaves the clock at the
// deadline even when the queue drains first: the no-op event pins it.
func (p *testPair) runFor(d sim.Duration) {
	deadline := p.s.Now().Add(d)
	p.s.At(deadline, func() {})
	p.s.DrainUntil(deadline)
}

func (r *relay) forward(wire []byte, fromA bool) {
	act := relayPass
	if r.onForward != nil {
		act = r.onForward(wire, fromA)
	}
	out := append([]byte(nil), wire...)
	switch act {
	case relayDrop:
		r.dropped++
		return
	case relayECN:
		packet.SetECNCE(out)
	case relayCorrupt:
		packet.CorruptPayload(out)
	}
	r.forwarded++
	if fromA {
		r.toB.Send(out)
	} else {
		r.toA.Send(out)
	}
}

// connect creates and connects a QP pair; B registers an MR sized for
// remote operations and the returned rkey/addr target it.
func (p *testPair) connect(t *testing.T, mtu, timeoutExp, retryCnt int) (qa, qb *QP, mr MR) {
	t.Helper()
	cfg := QPConfig{MTU: mtu, TimeoutExp: timeoutExp, RetryCnt: retryCnt}
	qa = p.a.CreateQP(cfg)
	qb = p.b.CreateQP(cfg)
	qa.Connect(qb.Local())
	qb.Connect(qa.Local())
	p.aQP, p.bQP = qa, qb
	mr = p.b.RegisterMR(64 << 20)
	return qa, qb, mr
}

// decode parses wire bytes, failing the test on error.
func decode(t *testing.T, wire []byte) *packet.Packet {
	t.Helper()
	var pkt packet.Packet
	if err := packet.DecodeInto(wire, &pkt); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &pkt
}

// runTransfer posts n messages of the given size back-to-back (tx-depth
// unbounded) and returns their completions after the simulation drains.
func runTransfer(t *testing.T, p *testPair, verb Verb, n, size int, mr MR) []Completion {
	t.Helper()
	var comps []Completion
	for i := 0; i < n; i++ {
		wr := WorkRequest{
			WRID: i, Verb: verb, Length: size,
			RemoteAddr: mr.Addr, RKey: mr.RKey,
			OnComplete: func(c Completion) { comps = append(comps, c) },
		}
		if verb == VerbSend {
			p.bQP.PostRecv(RecvRequest{WRID: i})
		}
		if err := p.aQP.PostSend(wr); err != nil {
			t.Fatalf("PostSend %d: %v", i, err)
		}
	}
	p.s.Run()
	return comps
}
