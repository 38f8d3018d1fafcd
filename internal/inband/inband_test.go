package inband

import (
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// roceWire serializes a representative RoCEv2 data packet.
func roceWire() []byte {
	p := &packet.Packet{
		Eth: packet.Ethernet{
			Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1},
			EtherType: packet.EtherTypeIPv4,
		},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		},
		UDP:     packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port},
		BTH:     packet.BTH{Opcode: packet.OpWriteMiddle, DestQP: 7, PSN: 100},
		Payload: make([]byte, 256),
	}
	return p.Serialize()
}

func TestOriginAssignsFreshTransits(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	w1, w2 := roceWire(), roceWire()
	c.StampWire(w1, origin, 10, 0, 0)
	c.StampWire(w2, origin, 20, 1250, 0)
	if c.TransitCount() != 2 {
		t.Fatalf("TransitCount = %d, want 2", c.TransitCount())
	}
	t1, t2 := uint64(1)<<32|1, uint64(1)<<32|2 // namespaced: origin hop 0
	if got := c.Stamps(); len(got) != 2 || got[0].Transit != t1 || got[1].Transit != t2 {
		t.Fatalf("stamps = %+v, want transits %d and %d", got, t1, t2)
	}
	g1, g2 := uint16(1)<<10, uint16(1)<<10|1 // tag = origin hop + per-origin count
	if packet.INTTransit(w1) != g1 || packet.INTTransit(w2) != g2 {
		t.Fatalf("wire tags = %d/%d, want %d/%d", packet.INTTransit(w1), packet.INTTransit(w2), g1, g2)
	}
}

func TestTransitHopResolvesTag(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	transit := c.RegisterHop("sw", false)
	wire := roceWire()
	c.StampWire(wire, origin, 0, 0, 0)
	c.StampWire(wire, transit, 150, 3000, 0)
	if c.TransitCount() != 1 {
		t.Fatalf("transit hop minted a new transit: count = %d", c.TransitCount())
	}
	st := c.Stamps()
	if len(st) != 2 || st[0].Transit != st[1].Transit {
		t.Fatalf("stamps = %+v, want both on transit 1", st)
	}
	if st[1].Hop != transit || st[1].QueueBytes != 3000 || st[1].AtNs != 150 {
		t.Fatalf("transit stamp = %+v", st[1])
	}
	s, ok := packet.DecodeINTStamp(wire)
	if !ok || s.Hop != transit {
		t.Fatalf("wire carries hop %d (ok=%v), want latest hop %d", s.Hop, ok, transit)
	}
}

func TestTransitHopIgnoresUntaggedAndNonRoCE(t *testing.T) {
	c := new(Collector)
	c.RegisterHop("nic", true) // hop 0, unused
	transit := c.RegisterHop("sw", false)
	c.StampWire(roceWire(), transit, 0, 0, 0) // no origin ever tagged it
	nonRoCE := make([]byte, 256)
	c.StampWire(nonRoCE, transit, 0, 0, 0)
	origin := uint8(0)
	c.StampWire(nonRoCE, origin, 0, 0, 0)
	if c.StampCount() != 0 || c.TransitCount() != 0 {
		t.Fatalf("stamps/transits = %d/%d, want 0/0", c.StampCount(), c.TransitCount())
	}
}

func TestPipelineBindsLineage(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	pipe := c.RegisterHop("sw-pipeline", false)
	wire := roceWire()
	c.StampWire(wire, origin, 0, 0, 0)
	c.Pipeline(wire, pipe, 75, 42)
	if c.BindCount() != 1 {
		t.Fatalf("BindCount = %d, want 1", c.BindCount())
	}
	if tr, ok := c.TransitOf(42); !ok || tr != uint64(1)<<32|1 {
		t.Fatalf("TransitOf(42) = %d/%v, want origin-namespaced transit 1", tr, ok)
	}
	if _, ok := c.TransitOf(43); ok {
		t.Fatal("unbound lineage ID resolved")
	}
	// An untagged packet binds nothing.
	c.Pipeline(roceWire(), pipe, 80, 99)
	if c.BindCount() != 1 {
		t.Fatal("untagged packet produced a bind")
	}
}

func TestUtilizationWindow(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	// First window [0,1000]: 500ns of committed airtime = 500‰.
	c.StampWire(roceWire(), origin, 1000, 0, sim.Duration(500))
	// Same instant: window cannot advance, previous value reused.
	c.StampWire(roceWire(), origin, 1000, 0, sim.Duration(700))
	// Window [1000,2000] with 1500ns more airtime committed: clamps at 1000‰.
	c.StampWire(roceWire(), origin, 2000, 0, sim.Duration(2000))
	st := c.Stamps()
	if st[0].UtilPermille != 500 || st[1].UtilPermille != 500 || st[2].UtilPermille != 1000 {
		t.Fatalf("utils = %d/%d/%d, want 500/500/1000", st[0].UtilPermille, st[1].UtilPermille, st[2].UtilPermille)
	}
	hops := c.Hops()
	if hops[0].MaxUtilPermille != 1000 || hops[0].Stamps != 3 {
		t.Fatalf("hop summary = %+v", hops[0])
	}
}

func TestHopSummaries(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	transit := c.RegisterHop("sw", false)
	wire := roceWire()
	c.StampWire(wire, origin, 0, 1250, 0)
	c.StampWire(wire, transit, 100, 9999, 0)
	hops := c.Hops()
	if len(hops) != 2 {
		t.Fatalf("hop count = %d", len(hops))
	}
	if hops[0].ID != 0 || hops[0].Name != "nic" || !hops[0].Origin || hops[0].MaxQueueBytes != 1250 {
		t.Fatalf("origin summary = %+v", hops[0])
	}
	if hops[1].ID != 1 || hops[1].Name != "sw" || hops[1].Origin || hops[1].MaxQueueBytes != 9999 {
		t.Fatalf("transit summary = %+v", hops[1])
	}
}

func TestResetKeepsHopsTruncatesLog(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	c.StampWire(roceWire(), origin, 0, 0, 0)
	c.Reset()
	if c.StampCount() != 0 {
		t.Fatal("Reset left stamps behind")
	}
	if len(c.Hops()) != 1 || c.Hops()[0].Name != "nic" {
		t.Fatal("Reset disturbed the hop table")
	}
	c.StampWire(roceWire(), origin, 10, 0, 0)
	if c.TransitCount() != 2 {
		t.Fatal("Reset disturbed transit numbering")
	}
}

// TestResetAndOutOfTableTags holds the collector self-consistent across
// Reset and deaf to tags no origin minted. Each row drives a fresh
// collector (origin nic = hop 0, transit sw = hop 1, pipeline = hop 2)
// and spells out what must hold after it.
func TestResetAndOutOfTableTags(t *testing.T) {
	const registeredOrigins = 1
	for _, tc := range []struct {
		name string
		// failsAtParent records whether the row failed before Reset
		// cleared per-hop aggregates and binds.
		failsAtParent bool
		drive         func(c *Collector, nic, sw, pipe uint8)
		stamps        int
		hopStamps     []uint64
		binds         int
		bound         map[uint64]bool
	}{{
		name:          "Reset clears the per-hop stamps with the log",
		failsAtParent: true,
		drive: func(c *Collector, nic, sw, pipe uint8) {
			w := roceWire()
			c.StampWire(w, nic, 0, 0, 0)
			c.Pipeline(w, pipe, 50, 1)
			c.Reset()
		},
		stamps: 0, hopStamps: []uint64{0, 0, 0}, binds: 0,
		bound: map[uint64]bool{1: false},
	}, {
		name:          "a bind made after Reset resolves, one made before does not",
		failsAtParent: true,
		drive: func(c *Collector, nic, sw, pipe uint8) {
			w := roceWire()
			c.StampWire(w, nic, 0, 0, 0)
			c.Pipeline(w, pipe, 50, 1)
			c.Reset()
			w = roceWire()
			c.StampWire(w, nic, 100, 0, 0)
			c.Pipeline(w, pipe, 150, 2)
			c.StampWire(w, sw, 200, 0, 0)
		},
		stamps: 3, hopStamps: []uint64{1, 1, 1}, binds: 1,
		bound: map[uint64]bool{1: false, 2: true},
	}, {
		name:          "a transit minted before Reset is not stamped after it",
		failsAtParent: true,
		drive: func(c *Collector, nic, sw, pipe uint8) {
			w := roceWire()
			c.StampWire(w, nic, 0, 0, 0)
			c.Reset()
			c.Pipeline(w, pipe, 50, 1)
			c.StampWire(w, sw, 100, 0, 0)
		},
		stamps: 0, hopStamps: []uint64{0, 0, 0}, binds: 0,
		bound: map[uint64]bool{1: false},
	}, {
		name: "tag 0 is untagged",
		drive: func(c *Collector, nic, sw, pipe uint8) {
			driveTag(c, sw, pipe, 0)
		},
		stamps: 0, hopStamps: []uint64{0, 0, 0}, binds: 0,
		bound: map[uint64]bool{1: false},
	}, {
		name: "the first tag past the registered origins is ignored",
		drive: func(c *Collector, nic, sw, pipe uint8) {
			c.StampWire(roceWire(), nic, 0, 0, 0)
			driveTag(c, sw, pipe, (registeredOrigins+1)<<tagCounterBits)
		},
		stamps: 1, hopStamps: []uint64{1, 0, 0}, binds: 0,
		bound: map[uint64]bool{1: false},
	}, {
		name: "tag 0xFFFF is ignored",
		drive: func(c *Collector, nic, sw, pipe uint8) {
			c.StampWire(roceWire(), nic, 0, 0, 0)
			driveTag(c, sw, pipe, 0xFFFF)
		},
		stamps: 1, hopStamps: []uint64{1, 0, 0}, binds: 0,
		bound: map[uint64]bool{1: false},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c := new(Collector)
			nic := c.RegisterHop("nic", true)
			sw := c.RegisterHop("sw", false)
			pipe := c.RegisterHop("sw-pipeline", false)
			tc.drive(c, nic, sw, pipe)
			if c.StampCount() != tc.stamps || len(c.Stamps()) != tc.stamps {
				t.Errorf("StampCount = %d, Stamps holds %d, want %d", c.StampCount(), len(c.Stamps()), tc.stamps)
			}
			var sum uint64
			for i, h := range c.Hops() {
				sum += h.Stamps
				if h.Stamps != tc.hopStamps[i] {
					t.Errorf("hop %s holds %d stamps, want %d", h.Name, h.Stamps, tc.hopStamps[i])
				}
			}
			if sum != uint64(c.StampCount()) {
				t.Errorf("per-hop stamps sum to %d, StampCount is %d", sum, c.StampCount())
			}
			if c.BindCount() != tc.binds {
				t.Errorf("BindCount = %d, want %d", c.BindCount(), tc.binds)
			}
			for seq, want := range tc.bound {
				if _, ok := c.TransitOf(seq); ok != want {
					t.Errorf("TransitOf(%d) bound = %v, want %v", seq, ok, want)
				}
			}
		})
	}
}

// driveTag writes tag into a RoCE frame's INT field and offers it to the
// transit hop and the pipeline.
func driveTag(c *Collector, sw, pipe uint8, tag uint16) {
	w := roceWire()
	packet.EmbedINTStamp(w, packet.INTStamp{Transit: tag})
	c.StampWire(w, sw, 10, 0, 0)
	c.Pipeline(w, pipe, 20, 1)
}

// TestStampLogKeepsOrderAcrossChunks records enough stamps to span
// several pages of the log: Stamps and StampCount must present them as
// one sequence in recording order, stamps recorded early must not move,
// and Reset must leave a log that starts over.
func TestStampLogKeepsOrderAcrossChunks(t *testing.T) {
	c := new(Collector)
	origin := c.RegisterHop("nic", true)
	wire := roceWire()
	const n = 5<<pageBits + 17
	var first *[logPage]byte
	for i := 0; i < n; i++ {
		c.StampWire(wire, origin, int64(i), int64(i)*3, 0)
		if i == 0 {
			first = c.log[0]
		}
	}
	if len(c.log) < 2 {
		t.Fatalf("%d stamps fit %d page(s); the log no longer spans several", n, len(c.log))
	}
	st := c.Stamps()
	if len(st) != n || c.StampCount() != n {
		t.Fatalf("Stamps holds %d, StampCount says %d, want %d", len(st), c.StampCount(), n)
	}
	for i := range st {
		if st[i].AtNs != int64(i) || st[i].QueueBytes != int64(i)*3 {
			t.Fatalf("stamp %d is %+v: out of recording order", i, st[i])
		}
	}
	if s, _ := c.decode(0); first != c.log[0] || s.at != 0 {
		t.Fatal("growing the log moved a stamp already recorded")
	}
	c.Reset()
	c.StampWire(wire, origin, 7, 0, 0)
	if st := c.Stamps(); len(st) != 1 || st[0].AtNs != 7 || c.StampCount() != 1 {
		t.Fatalf("after Reset the log holds %+v", st)
	}
}

// stampChain pushes one packet through nic → pipeline (bind) → switch
// egress, returning its transit ID.
func stampChain(c *Collector, nic, pipe, sw uint8, seq uint64, base int64, queue int64) uint64 {
	wire := roceWire()
	c.StampWire(wire, nic, base, 0, 0)
	c.Pipeline(wire, pipe, base+50, seq)
	c.StampWire(wire, sw, base+100, queue, 0)
	tr, _ := c.TransitOf(seq)
	return tr
}

func TestJoinAnnotatesChains(t *testing.T) {
	c := new(Collector)
	nic := c.RegisterHop("req-nic", true)
	pipe := c.RegisterHop("sw-pipeline", false)
	sw := c.RegisterHop("sw-resp", false)
	t1 := stampChain(c, nic, pipe, sw, 5, 0, 12500)
	t2 := stampChain(c, nic, pipe, sw, 7, 1000, 0)

	g := &lineage.Graph{
		Nodes: []lineage.Node{
			{ID: 0, Kind: lineage.NodeInject, At: 50, PSN: 9, Seq: 5},
			{ID: 1, Kind: lineage.NodeRewind, At: 400, PSN: 9},
			{ID: 2, Kind: lineage.NodeRetransmit, At: 1050, PSN: 9, Seq: 7},
		},
		Chains: []lineage.Chain{{
			Lineage: 5, Event: packet.EventDrop, PSN: 9,
			Nodes: []int{0, 1, 2}, Completed: true,
		}},
	}
	chains := c.Join(g)
	if len(chains) != 1 {
		t.Fatalf("chain count = %d", len(chains))
	}
	ch := chains[0]
	if ch.Lineage != 5 || ch.Event != "drop" || !ch.Completed {
		t.Fatalf("chain header = %+v", ch)
	}
	if len(ch.Nodes) != 3 {
		t.Fatalf("node count = %d", len(ch.Nodes))
	}
	inj, rew, ret := ch.Nodes[0], ch.Nodes[1], ch.Nodes[2]
	if inj.Transit != t1 || len(inj.Hops) != 3 {
		t.Fatalf("inject node = %+v", inj)
	}
	if inj.Hops[0].Hop != "req-nic" || inj.Hops[1].Hop != "sw-pipeline" || inj.Hops[2].Hop != "sw-resp" {
		t.Fatalf("crossing order = %+v", inj.Hops)
	}
	if inj.Hops[0].LatencyNs != 50 || inj.Hops[1].LatencyNs != 50 || inj.Hops[2].LatencyNs != 0 {
		t.Fatalf("crossing latencies = %+v", inj.Hops)
	}
	if inj.Hops[2].QueueBytes != 12500 {
		t.Fatalf("egress crossing queue = %d, want 12500", inj.Hops[2].QueueBytes)
	}
	if rew.Transit != 0 || len(rew.Hops) != 0 {
		t.Fatalf("probe-derived rewind node carries hops: %+v", rew)
	}
	if ret.Transit != t2 || len(ret.Hops) != 3 {
		t.Fatalf("retransmit node = %+v", ret)
	}
	if len(ch.PerHop) != 3 || ch.PerHop[0].Hop != "req-nic" || ch.PerHop[0].Crossings != 2 {
		t.Fatalf("per-hop digest = %+v", ch.PerHop)
	}
	if ch.PerHop[2].MaxQueueBytes != 12500 || ch.PerHop[0].TotalLatencyNs != 100 {
		t.Fatalf("per-hop aggregates = %+v", ch.PerHop)
	}
}

func TestJoinNilGraph(t *testing.T) {
	c := new(Collector)
	if c.Join(nil) != nil || c.Join(&lineage.Graph{}) != nil {
		t.Fatal("empty graph produced chains")
	}
}
