package rnic

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/sim"
)

// etsPair builds a pair whose requester has the given ETS configuration
// and n QPs mapped to traffic classes via tcOf.
func etsPair(t *testing.T, prof Profile, ets ETSConfig, nQPs int, tcOf func(i int) int) (*testPair, []*QP, MR) {
	t.Helper()
	o := defaultPairOpts()
	o.profA = prof
	o.etsA = ets
	o.setA.DCQCNRPEnable = false // isolate scheduling from congestion control
	p := newPair(t, o)
	mr := p.b.RegisterMR(1 << 30)
	var qps []*QP
	for i := 0; i < nQPs; i++ {
		cfg := QPConfig{MTU: 1024, TimeoutExp: 14, RetryCnt: 7, TrafficClass: tcOf(i)}
		qa := p.a.CreateQP(cfg)
		bCfg := cfg
		bCfg.TrafficClass = 0 // responder NIC keeps the default single queue
		qb := p.b.CreateQP(bCfg)
		qa.Connect(qb.Local())
		qb.Connect(qa.Local())
		qps = append(qps, qa)
	}
	return p, qps, mr
}

// transferAll posts msgs×size writes on every QP and returns per-QP
// completion times of the final message.
func transferAll(t *testing.T, p *testPair, qps []*QP, mr MR, msgs, size int) []sim.Time {
	t.Helper()
	last := make([]sim.Time, len(qps))
	for qi, qp := range qps {
		qi := qi
		for m := 0; m < msgs; m++ {
			err := qp.PostSend(WorkRequest{
				Verb: VerbWrite, Length: size, RemoteAddr: mr.Addr, RKey: mr.RKey,
				OnComplete: func(c Completion) { last[qi] = c.CompletedAt },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	p.s.Run()
	return last
}

func TestETSWeightedFairnessOnSpecNIC(t *testing.T) {
	// Two always-backlogged QPs in 75/25 queues must finish in roughly
	// that bandwidth ratio: the lighter queue's flow takes ~3x longer
	// per byte while both are active.
	ets := ETSConfig{Queues: []ETSQueueConfig{{Weight: 75}, {Weight: 25}}}
	p, qps, mr := etsPair(t, Profiles()[ModelSpec], ets, 2, func(i int) int { return i })

	var bytesAt4ms [2]int64
	done := make([]int64, 2)
	for qi, qp := range qps {
		qi := qi
		for m := 0; m < 100; m++ {
			qp.PostSend(WorkRequest{
				Verb: VerbWrite, Length: 1 << 20, RemoteAddr: mr.Addr, RKey: mr.RKey,
				OnComplete: func(c Completion) { done[qi] += int64(c.Bytes) },
			})
		}
	}
	p.runFor(4 * sim.Millisecond)
	bytesAt4ms[0], bytesAt4ms[1] = done[0], done[1]
	p.s.Run()
	if bytesAt4ms[0] == 0 || bytesAt4ms[1] == 0 {
		t.Fatalf("no progress: %v", bytesAt4ms)
	}
	ratio := float64(bytesAt4ms[0]) / float64(bytesAt4ms[1])
	if ratio < 2.4 || ratio > 3.8 {
		t.Fatalf("weighted share ratio = %.2f, want ≈ 3 (75/25)", ratio)
	}
}

func TestETSStrictPriorityStarvesWeighted(t *testing.T) {
	ets := ETSConfig{Queues: []ETSQueueConfig{{Strict: true}, {Weight: 100}}}
	p, qps, mr := etsPair(t, Profiles()[ModelSpec], ets, 2, func(i int) int { return i })
	done := make([]int64, 2)
	for qi, qp := range qps {
		qi := qi
		for m := 0; m < 50; m++ {
			qp.PostSend(WorkRequest{
				Verb: VerbWrite, Length: 1 << 20, RemoteAddr: mr.Addr, RKey: mr.RKey,
				OnComplete: func(c Completion) { done[qi] += int64(c.Bytes) },
			})
		}
	}
	p.runFor(2 * sim.Millisecond)
	if done[0] == 0 {
		t.Fatal("strict queue made no progress")
	}
	if done[1] > done[0]/4 {
		t.Fatalf("weighted queue (%d B) not dominated by strict queue (%d B)", done[1], done[0])
	}
	p.s.Run()
}

func TestCX6ETSQueueClampedToGuarantee(t *testing.T) {
	// §6.2.1: on CX6 Dx, a queue cannot exceed its guaranteed share even
	// when the other queue is completely idle. A lone flow in a 50%
	// queue therefore takes ~2x as long as on a work-conserving NIC.
	measure := func(prof Profile) sim.Duration {
		ets := ETSConfig{Queues: []ETSQueueConfig{{Weight: 50}, {Weight: 50}}}
		// QP0 in queue 0 carries all traffic; queue 1 has a silent QP.
		p, qps, mr := etsPair(t, prof, ets, 2, func(i int) int { return i })
		start := p.s.Now()
		ends := transferAll(t, p, qps[:1], mr, 20, 1<<20)
		return ends[0].Sub(start)
	}
	spec := measure(Profiles()[ModelSpec])
	cx6 := measure(Profiles()[ModelCX6])
	ratio := float64(cx6) / float64(spec)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("CX6/spec duration ratio = %.2f, want ≈ 2 (non-work-conserving clamp)", ratio)
	}
}

func TestCX6SingleQueueIsNotClamped(t *testing.T) {
	// The clamp only exists when bandwidth is partitioned: a single-queue
	// CX6 runs at line rate.
	measure := func(prof Profile) sim.Duration {
		p, qps, mr := etsPair(t, prof, DefaultETSConfig(), 1, func(int) int { return 0 })
		start := p.s.Now()
		ends := transferAll(t, p, qps, mr, 20, 1<<20)
		return ends[0].Sub(start)
	}
	spec := measure(Profiles()[ModelSpec])
	cx6 := measure(Profiles()[ModelCX6])
	ratio := float64(cx6) / float64(spec)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("single-queue CX6/spec ratio = %.2f, want ≈ 1", ratio)
	}
}

func TestSpecNICWorkConservation(t *testing.T) {
	// On a correct NIC, a lone flow in one of two 50/50 queues gets the
	// whole link: same duration as with a single queue.
	measureTwoQueue := func() sim.Duration {
		ets := ETSConfig{Queues: []ETSQueueConfig{{Weight: 50}, {Weight: 50}}}
		p, qps, mr := etsPair(t, Profiles()[ModelSpec], ets, 2, func(i int) int { return i })
		start := p.s.Now()
		ends := transferAll(t, p, qps[:1], mr, 20, 1<<20)
		return ends[0].Sub(start)
	}
	measureOneQueue := func() sim.Duration {
		p, qps, mr := etsPair(t, Profiles()[ModelSpec], DefaultETSConfig(), 1, func(int) int { return 0 })
		start := p.s.Now()
		ends := transferAll(t, p, qps, mr, 20, 1<<20)
		return ends[0].Sub(start)
	}
	two := measureTwoQueue()
	one := measureOneQueue()
	ratio := float64(two) / float64(one)
	if ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("two-queue/one-queue ratio = %.2f, want ≈ 1 (work conservation)", ratio)
	}
}

func TestSameQueueQPsShareFairly(t *testing.T) {
	// Round-robin within a queue: two backlogged QPs in one queue split
	// the link evenly.
	p, qps, mr := etsPair(t, Profiles()[ModelSpec], DefaultETSConfig(), 2, func(int) int { return 0 })
	done := make([]int64, 2)
	for qi, qp := range qps {
		qi := qi
		for m := 0; m < 50; m++ {
			qp.PostSend(WorkRequest{
				Verb: VerbWrite, Length: 1 << 20, RemoteAddr: mr.Addr, RKey: mr.RKey,
				OnComplete: func(c Completion) { done[qi] += int64(c.Bytes) },
			})
		}
	}
	p.runFor(3 * sim.Millisecond)
	if done[0] == 0 || done[1] == 0 {
		t.Fatalf("no progress: %v", done)
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("same-queue share ratio = %.2f, want ≈ 1", ratio)
	}
	p.s.Run()
}

func TestETSConfigValidation(t *testing.T) {
	bad := []ETSConfig{
		{},
		{Queues: []ETSQueueConfig{{Weight: 0}}},
		{Queues: []ETSQueueConfig{{Weight: -5}}},
		{Queues: []ETSQueueConfig{{Strict: true, Weight: 10}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated, want error", i)
		}
	}
	good := ETSConfig{Queues: []ETSQueueConfig{{Strict: true}, {Weight: 60}, {Weight: 40}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestTrafficClassOutOfRangePanics(t *testing.T) {
	s := sim.New(9)
	n := New(s, Profiles()[ModelSpec], Config{
		Name: "x", MAC: [6]byte{2, 0, 0, 0, 0, 1},
		IPs: []netip.Addr{ip("10.0.0.7")},
	})
	defer func() {
		if recover() == nil {
			t.Error("CreateQP with out-of-range traffic class did not panic")
		}
	}()
	n.CreateQP(QPConfig{TrafficClass: 5})
}
