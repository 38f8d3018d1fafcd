package perfgate

import (
	"net/netip"
	"os"
	"path/filepath"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/sim"
)

// A workload returns (ops per measurement pass, units per op, the
// operation). Measurements are reported per unit: micro workloads and
// whole-run tripwires have one unit per op, so they read per op; a macro
// workload that simulates many packets per op declares how many and
// reads per simulated packet. Setup happens inside the constructor so
// its allocations land outside the measured window; the op must be
// deterministic and free of wall-clock or global-RNG reads, like
// everything else in the simulator.
type workloadFn func() (ops, units int, op func())

// workloads maps budget names to their measurable operations. Every
// entry in perf_budgets.json must have a workload here and vice versa
// (TestPerfBudgets cross-checks).
var workloads = map[string]workloadFn{
	"packet_append_wire":  packetAppendWire,
	"packet_decode_into":  packetDecodeInto,
	"packet_icrc":         packetICRC,
	"sim_events":          simEvents,
	"sim_events_mixed":    simEventsMixed,
	"int_stamp":           intStamp,
	"coverage_record":     coverageRecord,
	"end_to_end_run":      endToEndRun,
	"fabric_incast":       fabricIncast,
	"bulk_pair_packet":    bulkPairPacket,
	"bulk_explain_packet": bulkExplainPacket,
	"cache_lookup":        cacheLookup,
}

// samplePacket is a representative mid-message Write data packet: the
// single most common packet shape on the simulated wire.
func samplePacket() *packet.Packet {
	return &packet.Packet{
		Eth: packet.Ethernet{
			Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1},
			EtherType: packet.EtherTypeIPv4,
		},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP, ECN: packet.ECNECT0,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		},
		UDP:     packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port},
		BTH:     packet.BTH{Opcode: packet.OpWriteMiddle, DestQP: 7, PSN: 100},
		Payload: make([]byte, 1024),
	}
}

// packetAppendWire is the transmit-side encode path: serializing a
// packet (headers + iCRC) into a reused buffer. Budgeted at zero
// allocations — this is the operation every simulated packet pays.
func packetAppendWire() (int, int, func()) {
	p := samplePacket()
	buf := make([]byte, 0, p.WireLen())
	return 20000, 1, func() { buf = p.AppendWire(buf[:0]) }
}

// packetDecodeInto is the receive-side parse path: decoding wire bytes
// into a reused packet struct, payload aliased not copied. Zero allocs.
func packetDecodeInto() (int, int, func()) {
	wire := samplePacket().Serialize()
	var pkt packet.Packet
	return 20000, 1, func() {
		if err := packet.DecodeInto(wire, &pkt); err != nil {
			panic(err)
		}
	}
}

// packetICRC is the invariant-CRC computation every received packet
// pays before transport processing. Zero allocs.
func packetICRC() (int, int, func()) {
	wire := samplePacket().Serialize()
	body := wire[:len(wire)-4]
	return 20000, 1, func() { _ = packet.ComputeICRC(body) }
}

// simEvents is the event-loop steady state: schedule one callback, fire
// it. With the indexed heap and the event freelist this recycles one
// event struct per op — zero allocations once warm.
func simEvents() (int, int, func()) {
	s := sim.New(1)
	fn := func() {}
	// Warm the freelist so the measured window sees steady state.
	for i := 0; i < 64; i++ {
		s.After(1, fn)
	}
	for s.Step() {
	}
	return 50000, 1, func() {
		s.After(1, fn)
		s.Step()
	}
}

// simEventsMixed exercises both tiers of the event queue: each op
// schedules two events inside the timing wheel's 16 µs horizon and two
// beyond it (the heap), cancels one of each, and fires two, so the
// queue's occupancy holds steady. Both tiers link or index the pooled
// event structs, so the op allocates nothing once the freelist and the
// heap's array have reached their working size.
func simEventsMixed() (int, int, func()) {
	s := sim.New(1)
	fn := func() {}
	op := func() {
		near := s.After(100, fn)
		s.After(5*sim.Microsecond, fn)
		s.After(20*sim.Microsecond, fn)
		far := s.After(sim.Millisecond, fn)
		s.Cancel(near)
		s.Cancel(far)
		s.Step()
		s.Step()
	}
	for i := 0; i < 64; i++ {
		s.After(sim.Duration(i)*sim.Microsecond, fn)
	}
	for i := 0; i < 10000; i++ {
		op()
	}
	return 50000, 1, op
}

// intStamp is the in-band telemetry hot path: an origin hop tags and
// stamps a RoCE packet, a transit hop resolves the tag and restamps,
// and the compact stamp is decoded back — the per-packet cost of an
// INT-enabled run. Budgeted at zero allocations: the stamp log is
// truncated (capacity kept) each op, exactly how steady state reuses
// it.
func intStamp() (int, int, func()) {
	c := inband.NewCollector(nil)
	origin := c.RegisterHop("nic", true)
	transit := c.RegisterHop("sw", false)
	wire := samplePacket().Serialize()
	// One warm pass grows the stamp log to its steady-state capacity.
	c.StampWire(wire, origin, 0, 0, 0)
	c.StampWire(wire, transit, 100, 1500, 80)
	c.Reset()
	var t int64
	return 20000, 1, func() {
		t += 1000
		c.StampWire(wire, origin, t, 0, sim.Duration(t/2))
		c.StampWire(wire, transit, t+100, 1500, sim.Duration(t/4))
		if _, ok := packet.DecodeINTStamp(wire); !ok {
			panic("perfgate: int_stamp decode failed")
		}
		c.Reset()
	}
}

// coverageRecord is the behavioral-coverage hot path: every
// instrumented FSM transition and match-action branch pays one Record
// call, and components without an attached map pay the nil-receiver
// no-op. Both sides are budgeted at zero allocations — the map is a
// fixed count vector sized by the compile-time registry.
func coverageRecord() (int, int, func()) {
	m := coverage.NewMap()
	var detached *coverage.Map
	return 50000, 1, func() {
		m.Record(coverage.SiteQPState, 1)
		m.Record(coverage.SiteInjectLookup, 0)
		m.Record(coverage.SiteDCQCNRP, 4)
		detached.Record(coverage.SiteAck, 0)
	}
}

// endToEndRun is one complete orchestrated test: setup, traffic,
// injection, mirroring, capture, trace reconstruction, integrity check.
// Its budget is the whole-system regression tripwire; the companion
// ratio check pins it ≥30% below the pre-optimization baseline.
func endToEndRun() (int, int, func()) {
	cfg := config.Default()
	cfg.Traffic.NumMsgsPerQP = 5
	return 8, 1, func() {
		rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
		if err != nil {
			panic(err)
		}
		if !rep.IntegrityOK {
			panic("perfgate: end_to_end_run integrity check failed: " + rep.IntegrityDetail)
		}
	}
}

// cacheLookup is the result-cache hit path: one verified Get of a real
// run's artifact set (entry.json parse, per-artifact read, size and
// digest check). This is what a warm corpus replay or a served
// resubmission pays *instead of* an end_to_end_run, so its budget keeps
// the hit path orders of magnitude below the simulation it replaces.
func cacheLookup() (int, int, func()) {
	cfg := config.Default()
	cfg.Traffic.NumMsgsPerQP = 5
	opts := orchestrator.DefaultOptions()
	opts.Lineage = true
	rep, err := orchestrator.Run(cfg, opts)
	if err != nil {
		panic(err)
	}
	arts, err := resultcache.Render(rep)
	if err != nil {
		panic(err)
	}
	// A fixed directory keeps repeated gate runs from accumulating temp
	// dirs; the previous run's copy is replaced wholesale.
	dir := filepath.Join(os.TempDir(), "lumina-perfgate-cache")
	os.RemoveAll(dir)
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		panic(err)
	}
	key, err := resultcache.KeyFor(cfg, "", opts)
	if err != nil {
		panic(err)
	}
	if err := c.Put(key, arts); err != nil {
		panic(err)
	}
	return 200, 1, func() {
		if _, ok := c.Get(key); !ok {
			panic("perfgate: cache_lookup missed a warm key")
		}
	}
}

// fabricIncast is one complete leaf-spine run: an 8-host 2-leaf /
// 1-spine incast (7 senders × 2 QPs into host 0). Its budget bounds
// what a multi-switch build and N flows cost per orchestrated run.
func fabricIncast() (int, int, func()) {
	cfg := config.Default()
	cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 4, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 2
	cfg.Traffic.Events = nil
	opts := orchestrator.DefaultOptions()
	return 4, 1, func() {
		rep, err := orchestrator.Run(cfg, opts)
		if err != nil {
			panic(err)
		}
		if !rep.IntegrityOK {
			panic("perfgate: fabric_incast integrity check failed: " + rep.IntegrityDetail)
		}
	}
}

// bulkScenario is the bulk pair scenario of the repository benchmark
// (bench/workloads/bulk.yaml, which go:embed cannot reach from here):
// two 1 MiB-message Write QPs in two ETS queues on CX6 Dx, one packet in
// fifty of the first QP ECN-marked — about ten thousand switch packets.
const bulkScenario = `
name: perfgate-bulk
requester:
  nic: {type: cx6, ip-list: [10.0.0.1]}
  ets-queues:
    - {weight: 50}
    - {weight: 50}
responder:
  nic: {type: cx6, ip-list: [10.0.0.2]}
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 4
  message-size: 1048576
  tx-depth: 4
  qp-traffic-class: [0, 1]
  data-pkt-events:
    - {qpn: 1, psn: 1, type: ecn, iter: 1, every: 50}
`

// bulkPairPacket is the macro budget the micro workloads cannot give:
// one whole bulk run — build, traffic, injection, mirroring, capture,
// reconstruction — divided by the packets it simulated. The per-packet
// data path (typed events, pooled frames, descriptor rings) allocates
// nothing at steady state, so what remains is per-run set-up, per-message
// completions and the amortized growth of the capture and the trace; a
// closure or a Serialize creeping back onto the path costs a whole
// allocation per packet and breaks the budget at once.
func bulkPairPacket() (int, int, func()) {
	return bulkRun(orchestrator.DefaultOptions(), "")
}

// bulkExplainPacket is the same run with every observer on — telemetry,
// lineage, INT, coverage — and its artifacts written out (what
// `lumina run -int -coverage -out` does), again per simulated packet. The
// history is bulk_pair_packet's, so the difference between the two
// budgets is what watching a packet costs: a few slab and log chunks per
// run, not a field list per probe, a string per address or a map bucket
// per transit.
func bulkExplainPacket() (int, int, func()) {
	opts := orchestrator.DefaultOptions()
	opts.Telemetry, opts.Lineage, opts.INT, opts.Coverage = true, true, true, true
	// A fixed directory, rewritten by every run, keeps repeated gate runs
	// from accumulating temp dirs.
	return bulkRun(opts, filepath.Join(os.TempDir(), "lumina-perfgate-explain"))
}

// bulkRun measures whole runs of bulkScenario under opts, their
// artifacts written into dir when it is non-empty, per simulated packet.
func bulkRun(opts orchestrator.Options, dir string) (int, int, func()) {
	cfg, err := config.Parse([]byte(bulkScenario))
	if err != nil {
		panic(err)
	}
	run := func() int {
		rep, err := orchestrator.Run(cfg, opts)
		if err != nil {
			panic(err)
		}
		if !rep.IntegrityOK {
			panic("perfgate: bulk run integrity check failed: " + rep.IntegrityDetail)
		}
		if dir != "" {
			if err := rep.WriteArtifacts(dir); err != nil {
				panic(err)
			}
		}
		return len(rep.Trace.Entries)
	}
	return 1, run(), func() { run() }
}
