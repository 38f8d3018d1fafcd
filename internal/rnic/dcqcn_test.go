package rnic

import (
	"testing"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// markEverything returns a relay hook that CE-marks every A→B data packet.
func markEverything(t *testing.T) func([]byte, bool) relayAction {
	return func(w []byte, fromA bool) relayAction {
		pkt := &packet.Packet{}
		if err := packet.Decode(w, pkt); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if fromA && pkt.BTH.Opcode.IsData() {
			return relayECN
		}
		return relayPass
	}
}

// collectCNPTimes taps B→A CNPs.
func collectCNPTimes(t *testing.T, p *testPair) *[]sim.Time {
	var times []sim.Time
	prev := p.relay.onForward
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if !fromA && pkt.BTH.Opcode.IsCNP() {
			times = append(times, p.s.Now())
		}
		if prev != nil {
			return prev(w, fromA)
		}
		return relayPass
	}
	return &times
}

func TestECNMarkedPacketsElicitCNPs(t *testing.T) {
	o := defaultPairOpts()
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 4, 10240, mr)
	if len(*times) == 0 {
		t.Fatal("no CNPs generated for CE-marked traffic")
	}
	if got := p.b.Counters.Get(CtrNpEcnMarked); got == 0 {
		t.Error("np_ecn_marked_roce_packets not counted")
	}
	if got := p.b.Counters.Get(CtrNpCnpSent); got != uint64(len(*times)) {
		t.Errorf("np_cnp_sent = %d, CNPs on wire = %d", got, len(*times))
	}
	if got := p.a.Counters.Get(CtrRpCnpHandled); got != uint64(len(*times)) {
		t.Errorf("rp_cnp_handled = %d, want %d", got, len(*times))
	}
}

func TestCNPDisabledByNPEnable(t *testing.T) {
	o := defaultPairOpts()
	o.setB.DCQCNNPEnable = false
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 2, 10240, mr)
	if len(*times) != 0 {
		t.Fatalf("NP disabled but %d CNPs generated", len(*times))
	}
}

func TestCNPRateLimiterEnforcesInterval(t *testing.T) {
	o := defaultPairOpts()
	o.setB.MinTimeBetweenCNPs = 20 * sim.Microsecond
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 200, 10240, mr)
	if len(*times) < 2 {
		t.Fatalf("want multiple CNPs, got %d", len(*times))
	}
	for i := 1; i < len(*times); i++ {
		gap := (*times)[i].Sub((*times)[i-1])
		if gap < 20*sim.Microsecond {
			t.Fatalf("CNP gap %v below configured 20µs minimum", gap)
		}
	}
}

func TestE810HiddenCNPFloorIgnoresConfig(t *testing.T) {
	// §6.3: E810 enforces ~50 µs between CNPs even when configuration
	// asks for zero.
	o := defaultPairOpts()
	o.profB = Profiles()[ModelE810]
	o.setB.MinTimeBetweenCNPs = 0
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 400, 10240, mr)
	if len(*times) < 2 {
		t.Fatalf("want multiple CNPs, got %d", len(*times))
	}
	floor := Profiles()[ModelE810].HiddenCNPInterval
	for i := 1; i < len(*times); i++ {
		if gap := (*times)[i].Sub((*times)[i-1]); gap < floor {
			t.Fatalf("CNP gap %v below E810's hidden %v floor", gap, floor)
		}
	}
}

func TestSpecNICHonorsZeroCNPInterval(t *testing.T) {
	o := defaultPairOpts()
	o.setB.MinTimeBetweenCNPs = 0
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 4, 10240, mr)
	// With no rate limiting every CE-marked packet may produce a CNP;
	// expect roughly one per data packet.
	if len(*times) < 20 {
		t.Fatalf("only %d CNPs with zero interval; coalescing should be off", len(*times))
	}
}

func TestE810CnpSentCounterStuck(t *testing.T) {
	// §6.2.4: E810 generates CNPs (visible on the wire) while its
	// cnpSent counter never moves.
	o := defaultPairOpts()
	o.profB = Profiles()[ModelE810]
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	times := collectCNPTimes(t, p)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 10, 10240, mr)
	if len(*times) == 0 {
		t.Fatal("E810 generated no CNPs at all")
	}
	if got := p.b.Counters.Get(CtrNpCnpSent); got != 0 {
		t.Fatalf("cnpSent = %d; the E810 bug should keep it at 0", got)
	}
}

func TestCX4ImpliedNakCounterStuck(t *testing.T) {
	// §6.2.4: CX4 Lx retransmits read data (visible in the trace) while
	// implied_nak_seq_err never moves. CX5 under the same loss pattern
	// counts it.
	for _, tc := range []struct {
		model string
		want  bool // counter should move
	}{{ModelCX4, false}, {ModelCX5, true}} {
		o := defaultPairOpts()
		o.profA = Profiles()[tc.model] // requester detects read-response gaps
		p := newPair(t, o)
		droppedOnce := false
		p.relay.onForward = func(w []byte, fromA bool) relayAction {
			pkt := decode(t, w)
			if !fromA && pkt.BTH.Opcode.IsReadResponse() && pkt.BTH.Opcode.IsMiddle() && !droppedOnce {
				droppedOnce = true
				return relayDrop
			}
			return relayPass
		}
		_, _, mr := p.connect(t, 1024, 14, 7)
		comps := runTransfer(t, p, VerbRead, 1, 10240, mr)
		if comps[0].Status != StatusOK {
			t.Fatalf("%s: read did not recover: %v", tc.model, comps[0].Status)
		}
		got := p.a.Counters.Get(CtrImpliedNakSeq)
		if tc.want && got == 0 {
			t.Errorf("%s: implied_nak_seq_err = 0, want > 0", tc.model)
		}
		if !tc.want && got != 0 {
			t.Errorf("%s: implied_nak_seq_err = %d, bug should pin it at 0", tc.model, got)
		}
	}
}

func TestCNPReducesQPPaceRate(t *testing.T) {
	o := defaultPairOpts()
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	_, _, mr := p.connect(t, 1024, 10, 7)
	line := p.a.Prof.LinkGbps
	if got := p.aQP.paceRate(); got != line {
		t.Fatalf("initial pace rate = %v, want line rate %v", got, line)
	}
	for i := 0; i < 10; i++ {
		p.aQP.PostSend(WorkRequest{Verb: VerbWrite, Length: 10240, RemoteAddr: mr.Addr, RKey: mr.RKey})
	}
	// Sample mid-transfer: the RP deliberately releases its rate limiter
	// after full recovery, so the reduction is only visible while CNPs
	// are active.
	minRate := line
	for i := 0; i < 200; i++ {
		p.s.RunFor(2 * sim.Microsecond)
		if r := p.aQP.paceRate(); r < minRate {
			minRate = r
		}
	}
	p.s.Run()
	if minRate >= line {
		t.Fatalf("pace rate never dropped below line rate %v under sustained CE marking", line)
	}
	// And after congestion ends and recovery completes, the limiter is
	// released (rate back at line).
	if got := p.aQP.paceRate(); got != line {
		t.Fatalf("pace rate = %v after recovery, want released to line rate", got)
	}
}

func TestRPDisabledIgnoresCNPs(t *testing.T) {
	o := defaultPairOpts()
	o.setA.DCQCNRPEnable = false
	p := newPair(t, o)
	p.relay.onForward = markEverything(t)
	_, _, mr := p.connect(t, 1024, 10, 7)
	runTransfer(t, p, VerbWrite, 10, 10240, mr)
	if got := p.aQP.paceRate(); got != p.a.Prof.LinkGbps {
		t.Fatalf("pace rate = %v with RP disabled, want line rate", got)
	}
}

func TestDCQCNRateRecoversAfterCongestionEnds(t *testing.T) {
	o := defaultPairOpts()
	p := newPair(t, o)
	marking := true
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsData() && marking {
			return relayECN
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 7)
	for i := 0; i < 10; i++ {
		p.aQP.PostSend(WorkRequest{Verb: VerbWrite, Length: 10240, RemoteAddr: mr.Addr, RKey: mr.RKey})
	}
	p.s.RunFor(30 * sim.Microsecond) // several RTTs of marked traffic
	reduced := p.aQP.paceRate()
	if reduced >= p.a.Prof.LinkGbps {
		t.Fatal("rate did not reduce under marking")
	}
	// Stop marking and let the increase timers run.
	marking = false
	p.s.RunFor(50 * sim.Millisecond)
	recovered := p.aQP.paceRate()
	if recovered <= reduced {
		t.Fatalf("rate did not recover: %v -> %v", reduced, recovered)
	}
	p.s.Run()
}

func TestCNPScopePerQPvsPerPort(t *testing.T) {
	// Two QPs on the same NIC pair, every packet CE-marked, zero
	// configured interval but a 10µs profile floor. Per-port scope
	// should emit roughly half the CNPs of per-QP scope.
	run := func(scope CNPScope) int {
		o := defaultPairOpts()
		o.profB.CNPScope = scope
		o.profB.MinCNPInterval = 10 * sim.Microsecond
		o.setB.MinTimeBetweenCNPs = -1
		// Keep the sender at line rate so CNP density reflects only the
		// limiter scope, not DCQCN rate cuts.
		o.setA.DCQCNRPEnable = false
		p := newPair(t, o)
		p.relay.onForward = markEverything(t)
		times := collectCNPTimes(t, p)

		cfg := QPConfig{MTU: 1024, TimeoutExp: 10, RetryCnt: 7}
		mr := p.b.RegisterMR(64 << 20)
		var qas []*QP
		for i := 0; i < 2; i++ {
			qa := p.a.CreateQP(cfg)
			qb := p.b.CreateQP(cfg)
			qa.Connect(qb.Local())
			qb.Connect(qa.Local())
			qas = append(qas, qa)
		}
		for i := 0; i < 100; i++ {
			for _, qa := range qas {
				qa.PostSend(WorkRequest{Verb: VerbWrite, Length: 10240, RemoteAddr: mr.Addr, RKey: mr.RKey})
			}
		}
		p.s.Run()
		return len(*times)
	}
	perQP := run(CNPPerQP)
	perPort := run(CNPPerPort)
	if perQP < perPort*14/10 {
		t.Fatalf("per-QP scope CNPs (%d) not meaningfully above per-port (%d)", perQP, perPort)
	}
}

func TestAdaptiveRetransFollowsHiddenSchedule(t *testing.T) {
	// §6.3: with adaptive retransmission on, CX6 Dx timeouts follow an
	// undocumented schedule instead of 4.096µs·2^timeout, and the NIC
	// retries more than retry_cnt times.
	o := defaultPairOpts()
	o.profA = Profiles()[ModelCX6]
	o.setA.AdaptiveRetrans = true
	p := newPair(t, o)
	var dataTimes []sim.Time
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsData() {
			dataTimes = append(dataTimes, p.s.Now())
			return relayDrop // black-hole: force repeated timeouts
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 14, 7)
	runTransfer(t, p, VerbWrite, 1, 1024, mr)

	prof := Profiles()[ModelCX6]
	retries := len(dataTimes) - 1
	if retries < prof.AdaptiveRetryMin || retries > prof.AdaptiveRetryMax {
		t.Fatalf("adaptive mode retried %d times, want %d..%d (retry_cnt was 7)",
			retries, prof.AdaptiveRetryMin, prof.AdaptiveRetryMax)
	}
	for i := 1; i < len(dataTimes) && i-1 < len(prof.AdaptiveTimeouts); i++ {
		gap := dataTimes[i].Sub(dataTimes[i-1])
		want := prof.AdaptiveTimeouts[i-1]
		ratio := float64(gap) / float64(want)
		if ratio < 0.98 || ratio > 1.05 {
			t.Errorf("retry %d timeout = %v, schedule says %v", i, gap, want)
		}
		// Every adaptive timeout in the schedule is far below the
		// IB-spec 4.096µs·2^14 ≈ 67.1ms for early retries.
		if i <= 2 && gap >= sim.Duration(4096)<<14 {
			t.Errorf("retry %d timeout %v not shorter than spec RTO", i, gap)
		}
	}
}

func TestAdaptiveRetransOffFollowsSpec(t *testing.T) {
	// Disabling adaptive retransmission restores IB-spec behaviour even
	// on NICs that support it (§6.3).
	o := defaultPairOpts()
	o.profA = Profiles()[ModelCX6]
	o.setA.AdaptiveRetrans = false
	p := newPair(t, o)
	transmissions := 0
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		pkt := decode(t, w)
		if fromA && pkt.BTH.Opcode.IsData() {
			transmissions++
			return relayDrop
		}
		return relayPass
	}
	_, _, mr := p.connect(t, 1024, 10, 3)
	runTransfer(t, p, VerbWrite, 1, 1024, mr)
	if got := transmissions - 1; got != 3 {
		t.Fatalf("retried %d times, spec requires exactly retry_cnt = 3", got)
	}
}

func TestSlowPathOverloadWedgesPipeline(t *testing.T) {
	// §6.2.2 in miniature: saturate the slow-path contexts and verify
	// the NIC wedges, discards arrivals, and recovers after the
	// watchdog duration.
	o := defaultPairOpts()
	o.profA = Profiles()[ModelCX4]
	p := newPair(t, o)
	p.connect(t, 1024, 14, 7)
	prof := p.a.Prof
	// Staying at capacity does not wedge.
	for i := 0; i < prof.SlowPathContexts; i++ {
		p.a.slowPathEnter(100 * sim.Microsecond)
	}
	if p.a.stalled() {
		t.Fatal("NIC wedged at (not above) context capacity")
	}
	// One more wedges the pipeline.
	p.a.slowPathEnter(100 * sim.Microsecond)
	if !p.a.stalled() {
		t.Fatal("NIC not wedged above context capacity")
	}
	before := p.a.Counters.Get(CtrRxDiscardsPhy)
	wire := p.bQP.baseHeader(packet.OpWriteOnly, p.bQP.nextPSN).Serialize()
	p.a.receive(wire, false)
	if got := p.a.Counters.Get(CtrRxDiscardsPhy); got != before+1 {
		t.Fatalf("rx_discards_phy = %d, want %d", got, before+1)
	}
	// The wedge persists long after the slow paths themselves drained…
	p.s.RunFor(prof.WedgeDuration / 2)
	if !p.a.stalled() {
		t.Fatal("wedge cleared before the watchdog duration")
	}
	// …and clears at the watchdog deadline.
	p.s.RunFor(prof.WedgeDuration)
	if p.a.stalled() {
		t.Fatal("NIC still wedged after the watchdog duration")
	}
	// Within the cooldown, another overload does not re-wedge.
	for i := 0; i <= prof.SlowPathContexts; i++ {
		p.a.slowPathEnter(100 * sim.Microsecond)
	}
	if p.a.stalled() {
		t.Fatal("re-wedged during cooldown")
	}
}

func TestSpecNICHasNoSlowPathStall(t *testing.T) {
	p := newPair(t, defaultPairOpts())
	for i := 0; i < 100; i++ {
		p.a.slowPathEnter(time100us)
	}
	if p.a.stalled() {
		t.Fatal("spec NIC must never stall (unlimited contexts)")
	}
}

const time100us = 100 * sim.Microsecond

func TestStrictAPMDiscardsOverCapacityConnections(t *testing.T) {
	// §6.2.3 in miniature: an E810 (MigReq=0) talking to a strict-APM
	// CX5 with more concurrent QPs than the APM cache holds sees
	// receiver-side discards; the same setup under the cache capacity
	// is clean.
	run := func(nQPs int) uint64 {
		o := defaultPairOpts()
		o.profA = Profiles()[ModelE810]
		o.profB = Profiles()[ModelCX5]
		o.seed = 11
		p := newPair(t, o)
		cfg := QPConfig{MTU: 1024, TimeoutExp: 12, RetryCnt: 7}
		mr := p.b.RegisterMR(256 << 20)
		var qas []*QP
		for i := 0; i < nQPs; i++ {
			qa := p.a.CreateQP(cfg)
			qb := p.b.CreateQP(cfg)
			qa.Connect(qb.Local())
			qb.Connect(qa.Local())
			qas = append(qas, qa)
		}
		for _, qa := range qas {
			for m := 0; m < 3; m++ {
				qa.PostSend(WorkRequest{Verb: VerbWrite, Length: 102400, RemoteAddr: mr.Addr, RKey: mr.RKey})
			}
		}
		p.s.Run()
		return p.b.Counters.Get(CtrRxDiscardsPhy)
	}
	if d := run(4); d != 0 {
		t.Fatalf("4 QPs: %d discards, want 0", d)
	}
	if d := run(24); d == 0 {
		t.Fatal("24 QPs: no discards; APM overflow should have dropped packets")
	}
}

func TestAPMRewriteToOneAvoidsDiscards(t *testing.T) {
	// Forcing MigReq to 1 in flight (the Lumina action that confirmed
	// the root cause, §6.2.3) eliminates the discards.
	o := defaultPairOpts()
	o.profA = Profiles()[ModelE810]
	o.profB = Profiles()[ModelCX5]
	p := newPair(t, o)
	p.relay.onForward = func(w []byte, fromA bool) relayAction {
		if fromA {
			// Equivalent of the injector's set-migreq action: flip the
			// BTH MigReq bit and fix the iCRC.
			var pkt packet.Packet
			if packet.Decode(w, &pkt) == nil && pkt.BTH.Opcode.IsData() {
				pkt.BTH.MigReq = true
				copy(w, pkt.Serialize())
			}
		}
		return relayPass
	}
	cfg := QPConfig{MTU: 1024, TimeoutExp: 12, RetryCnt: 7}
	mr := p.b.RegisterMR(256 << 20)
	for i := 0; i < 24; i++ {
		qa := p.a.CreateQP(cfg)
		qb := p.b.CreateQP(cfg)
		qa.Connect(qb.Local())
		qb.Connect(qa.Local())
		for m := 0; m < 3; m++ {
			qa.PostSend(WorkRequest{Verb: VerbWrite, Length: 102400, RemoteAddr: mr.Addr, RKey: mr.RKey})
		}
	}
	p.s.Run()
	if d := p.b.Counters.Get(CtrRxDiscardsPhy); d != 0 {
		t.Fatalf("%d discards despite MigReq rewrite", d)
	}
}
