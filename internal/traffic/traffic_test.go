package traffic

import (
	"net/netip"
	"runtime"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// directPair wires two NICs back to back (no switch) for generator unit
// tests.
func directPair(t *testing.T, seed int64) (*sim.Simulator, *rnic.NIC, *rnic.NIC) {
	t.Helper()
	s := sim.New(seed)
	prof, _ := rnic.ProfileByName(rnic.ModelSpec)
	a := rnic.New(s, prof, rnic.Config{
		Name: "req", MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.11")},
		Set: rnic.DefaultSettings(),
	})
	b := rnic.New(s, prof, rnic.Config{
		Name: "resp", MAC: packet.MAC{2, 0, 0, 0, 0, 2},
		IPs: []netip.Addr{netip.MustParseAddr("10.0.0.2")},
		Set: rnic.DefaultSettings(),
	})
	pa, pb := sim.Connect(s, "a", "b", prof.LinkGbps, 100)
	a.AttachPort(pa)
	b.AttachPort(pb)
	return s, a, b
}

func trafficCfg() config.Traffic {
	return config.Traffic{
		NumConnections: 2, Verb: "write", NumMsgsPerQP: 3,
		MTU: 1024, MessageSize: 4096, TxDepth: 1,
		MinRetransmitTimeout: 14, MaxRetransmitRetry: 7,
	}
}

func TestPairRunsToCompletion(t *testing.T) {
	s, a, b := directPair(t, 1)
	p, err := NewPair(s, a, b, trafficCfg(), "")
	if err != nil {
		t.Fatal(err)
	}
	var res *Results
	if err := p.Start(func(r *Results) { res = r }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if res == nil || !p.Finished() {
		t.Fatal("traffic never finished")
	}
	if len(res.Conns) != 2 {
		t.Fatalf("conns = %d", len(res.Conns))
	}
	for _, c := range res.Conns {
		if c.Statuses["OK"] != 3 || c.Bytes != 3*4096 {
			t.Fatalf("conn %d: %+v", c.Index, c)
		}
		if c.GoodputGbps() <= 0 {
			t.Fatal("no goodput")
		}
		if c.AvgMCT() <= 0 || c.MaxMCT() < c.AvgMCT() {
			t.Fatalf("MCT stats inconsistent: avg %v max %v", c.AvgMCT(), c.MaxMCT())
		}
	}
	if res.TotalGoodputGbps() <= 0 || res.AvgMCT() <= 0 {
		t.Fatal("aggregate metrics missing")
	}
}

func TestConnMetasMatchQPs(t *testing.T) {
	s, a, b := directPair(t, 2)
	p, err := NewPair(s, a, b, trafficCfg(), "")
	if err != nil {
		t.Fatal(err)
	}
	metas := p.ConnMetas()
	if len(metas) != 2 {
		t.Fatalf("metas = %d", len(metas))
	}
	for _, m := range metas {
		if m.ReqQPN == 0 || m.RespQPN == 0 {
			t.Fatal("QPNs missing from metadata")
		}
		if m.ReqIP != a.IP() && m.ReqIP != a.IPs()[1] {
			t.Fatalf("requester IP %v not on requester NIC", m.ReqIP)
		}
		if m.RespIP != b.IP() {
			t.Fatalf("responder IP %v", m.RespIP)
		}
	}
	if metas[0].ReqQPN == metas[1].ReqQPN {
		t.Fatal("connections share a QPN")
	}
}

func TestTxDepthLimitsOutstanding(t *testing.T) {
	// With tx-depth 1, message k+1 is posted only after k completes:
	// completion times are strictly increasing with full message gaps.
	s, a, b := directPair(t, 3)
	cfg := trafficCfg()
	cfg.NumConnections = 1
	cfg.NumMsgsPerQP = 4
	cfg.TxDepth = 1
	p, _ := NewPair(s, a, b, cfg, "")
	p.Start(nil)
	s.Run()
	res := p.Results()
	mcts := res.Conns[0].MCTs
	if len(mcts) != 4 {
		t.Fatalf("mcts = %d", len(mcts))
	}
	// Each message's MCT is roughly the single-message time (no queueing
	// inflation from pipelining).
	for i := 1; i < len(mcts); i++ {
		ratio := float64(mcts[i]) / float64(mcts[0])
		if ratio > 1.5 {
			t.Fatalf("MCT %d inflated %.2f× despite tx-depth 1", i, ratio)
		}
	}

	// With tx-depth 4, all messages queue at once: later completions
	// reflect queueing delay.
	s2, a2, b2 := directPair(t, 3)
	cfg.TxDepth = 4
	p2, _ := NewPair(s2, a2, b2, cfg, "")
	p2.Start(nil)
	s2.Run()
	m2 := p2.Results().Conns[0].MCTs
	// Successive messages wait behind their predecessors: MCTs increase
	// by roughly one message serialization time each.
	for i := 1; i < len(m2); i++ {
		if m2[i] <= m2[i-1] {
			t.Fatalf("deep tx queue shows no queueing: %v", m2)
		}
	}
	if float64(m2[3])/float64(m2[0]) < 1.3 {
		t.Fatalf("deep tx queue inflation too small: %v", m2)
	}
}

func TestBarrierSyncRoundsAdvanceTogether(t *testing.T) {
	s, a, b := directPair(t, 4)
	cfg := trafficCfg()
	cfg.NumConnections = 3
	cfg.NumMsgsPerQP = 3
	cfg.BarrierSync = true
	p, _ := NewPair(s, a, b, cfg, "")
	p.Start(nil)
	s.Run()
	res := p.Results()
	if res == nil {
		t.Fatal("barrier traffic never finished")
	}
	for _, c := range res.Conns {
		if c.Statuses["OK"] != 3 {
			t.Fatalf("conn %d statuses %v", c.Index, c.Statuses)
		}
	}
}

func TestMultiGIDAssignsAlternatingSources(t *testing.T) {
	s, a, b := directPair(t, 5)
	cfg := trafficCfg()
	cfg.NumConnections = 4
	cfg.MultiGID = true
	p, _ := NewPair(s, a, b, cfg, "")
	metas := p.ConnMetas()
	ips := map[string]int{}
	for _, m := range metas {
		ips[m.ReqIP.String()]++
	}
	if len(ips) != 2 || ips["10.0.0.1"] != 2 || ips["10.0.0.11"] != 2 {
		t.Fatalf("GID distribution = %v", ips)
	}
}

func TestSendVerbPostsRecvs(t *testing.T) {
	s, a, b := directPair(t, 6)
	cfg := trafficCfg()
	cfg.Verb = "send"
	p, _ := NewPair(s, a, b, cfg, "")
	p.Start(nil)
	s.Run()
	for _, c := range p.Results().Conns {
		if c.Statuses["OK"] != cfg.NumMsgsPerQP {
			t.Fatalf("send conn %d: %v", c.Index, c.Statuses)
		}
	}
}

func TestReadVerb(t *testing.T) {
	s, a, b := directPair(t, 7)
	cfg := trafficCfg()
	cfg.Verb = "read"
	p, _ := NewPair(s, a, b, cfg, "")
	p.Start(nil)
	s.Run()
	for _, c := range p.Results().Conns {
		if c.Statuses["OK"] != cfg.NumMsgsPerQP {
			t.Fatalf("read conn %d: %v", c.Index, c.Statuses)
		}
	}
}

func TestUnknownVerbRejected(t *testing.T) {
	s, a, b := directPair(t, 8)
	cfg := trafficCfg()
	cfg.Verb = "atomic"
	if _, err := NewPair(s, a, b, cfg, ""); err == nil {
		t.Fatal("unknown verb accepted")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	s, a, b := directPair(t, 9)
	p, _ := NewPair(s, a, b, trafficCfg(), "")
	if err := p.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(nil); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestResultsNilBeforeFinish(t *testing.T) {
	s, a, b := directPair(t, 10)
	p, _ := NewPair(s, a, b, trafficCfg(), "")
	if p.Results() != nil {
		t.Fatal("results before start")
	}
	p.Start(nil)
	if p.Results() != nil {
		t.Fatal("results before finish")
	}
	s.Run()
	if p.Results() == nil {
		t.Fatal("results after finish")
	}
}

func TestSendReadVerbComboBidirectional(t *testing.T) {
	// §3.2: verb combinations generate bi-directional data traffic —
	// Sends flow requester→responder while Read responses flow back.
	s, a, b := directPair(t, 11)
	cfg := trafficCfg()
	cfg.Verb = "send+read"
	cfg.NumMsgsPerQP = 6
	p, err := NewPair(s, a, b, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	p.Start(nil)
	s.Run()
	res := p.Results()
	if res == nil {
		t.Fatal("combo traffic never finished")
	}
	for _, c := range res.Conns {
		if c.Statuses["OK"] != 6 {
			t.Fatalf("conn %d statuses = %v", c.Index, c.Statuses)
		}
	}
	// Both directions moved real data: requester tx includes send data,
	// responder tx includes read responses (more than just ACKs).
	respTxBytes := b.Counters.Get(rnic.CtrTxRoCEBytes)
	reqTxBytes := a.Counters.Get(rnic.CtrTxRoCEBytes)
	wantHalf := uint64(cfg.MessageSize * cfg.NumMsgsPerQP / 2 * cfg.NumConnections)
	if reqTxBytes < wantHalf {
		t.Fatalf("requester tx %d B, want ≥ %d (send half)", reqTxBytes, wantHalf)
	}
	if respTxBytes < wantHalf {
		t.Fatalf("responder tx %d B, want ≥ %d (read-response half)", respTxBytes, wantHalf)
	}
}

func TestWriteReadVerbCombo(t *testing.T) {
	s, a, b := directPair(t, 12)
	cfg := trafficCfg()
	cfg.Verb = "write+read"
	cfg.NumMsgsPerQP = 4
	p, err := NewPair(s, a, b, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	p.Start(nil)
	s.Run()
	for _, c := range p.Results().Conns {
		if c.Statuses["OK"] != 4 {
			t.Fatalf("conn %d statuses = %v", c.Index, c.Statuses)
		}
	}
}

func TestVerbComboParsing(t *testing.T) {
	if _, err := parseVerbCombo("send+read"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseVerbCombo("send+atomic"); err == nil {
		t.Fatal("bad combo accepted")
	}
	if _, err := parseVerbCombo("+read"); err == nil {
		t.Fatal("empty combo element accepted")
	}
}

func TestPercentileMCT(t *testing.T) {
	c := ConnStats{MCTs: []sim.Duration{50, 10, 40, 20, 30}}
	cases := []struct {
		p    float64
		want sim.Duration
	}{{0, 10}, {50, 30}, {100, 50}, {90, 50}, {10, 10}}
	for _, tc := range cases {
		if got := c.PercentileMCT(tc.p); got != tc.want {
			t.Errorf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	var empty ConnStats
	if empty.PercentileMCT(50) != 0 {
		t.Error("empty percentile not zero")
	}
}

// TestMCTWindowsAreClipped checks that the connections' MCTs, windows
// into one slab, cannot run into each other: appending to one
// connection's MCTs leaves the next connection's unchanged, and each
// window holds exactly its own completions.
func TestMCTWindowsAreClipped(t *testing.T) {
	s, a, b := directPair(t, 3)
	cfg := trafficCfg()
	cfg.NumConnections = 3
	p, err := NewPair(s, a, b, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	var res *Results
	if err := p.Start(func(r *Results) { res = r }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if res == nil {
		t.Fatal("traffic never finished")
	}
	for i := range res.Conns {
		if c := &res.Conns[i]; len(c.MCTs) != cfg.NumMsgsPerQP || cap(c.MCTs) != cfg.NumMsgsPerQP {
			t.Fatalf("conn %d: MCTs len %d cap %d, want %d", i, len(c.MCTs), cap(c.MCTs), cfg.NumMsgsPerQP)
		}
	}
	next := append([]sim.Duration(nil), res.Conns[1].MCTs...)
	_ = append(res.Conns[0].MCTs, -1)
	for i, d := range res.Conns[1].MCTs {
		if d != next[i] {
			t.Fatalf("appending to conn 0's MCTs moved conn 1's MCT %d: %v → %v", i, next[i], d)
		}
	}
}

// TestConnectionWithoutOKCompletionKeepsNilMCTs runs one connection
// that never completes a message: its MCTs stay nil (null in
// report.json) while the other's fill their window.
func TestConnectionWithoutOKCompletionKeepsNilMCTs(t *testing.T) {
	s, a, b := directPair(t, 4)
	cfg := trafficCfg()
	cfg.MaxRetransmitRetry = 0
	cfg.MinRetransmitTimeout = 1
	p, err := NewPair(s, a, b, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	// Connection 1's responder QP is never reachable: its requester
	// errors out on its first timeout.
	p.conns[1].reqQP.Connect(rnic.Endpoint{IP: netip.MustParseAddr("10.9.9.9"), QPN: 7})
	var res *Results
	if err := p.Start(func(r *Results) { res = r }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if res == nil {
		t.Fatal("traffic never finished")
	}
	if got := res.Conns[1].MCTs; got != nil || !res.Conns[1].Errored {
		t.Fatalf("conn 1: MCTs %v errored %v, want nil and errored", got, res.Conns[1].Errored)
	}
	if got := res.Conns[0].MCTs; len(got) != cfg.NumMsgsPerQP {
		t.Fatalf("conn 0: %d MCTs, want %d", len(got), cfg.NumMsgsPerQP)
	}
}

// TestNewPairReservesBoundedWork builds one connection at the message
// bound a scenario may ask for: a pair reserves work requests for at
// most reservedWQEs of them, so building it allocates megabytes, not
// the half gigabyte all 2^22 would take before one is posted.
func TestNewPairReservesBoundedWork(t *testing.T) {
	s, a, b := directPair(t, 5)
	cfg := trafficCfg()
	cfg.NumConnections, cfg.NumMsgsPerQP, cfg.MessageSize = 1, 1<<22, 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewPair(s, a, b, cfg, ""); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 16 {
		t.Fatalf("NewPair allocated %.1f MB for one connection", mb)
	}
}
