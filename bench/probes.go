package main

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Unit-cost probes: each drives one layer's public API alone, with the
// packet the simulating workloads put on the wire most (a mid-message
// Write at the 1024-byte MTU). probe cost x the layer's count per op,
// over orchestrator.simulate_self_ms, is that layer's share of an op.

const (
	probeBatch  = 512 // frames per batch: below every queue and ring limit
	probeRounds = 7   // batches timed; the p50 is reported
)

var (
	probeSrcMAC = packet.MAC{2, 0, 0, 0, 0, 1}
	probeDstMAC = packet.MAC{2, 0, 0, 0, 0, 2}
	probeSrcIP  = netip.MustParseAddr("10.0.0.1")
	probeDstIP  = netip.MustParseAddr("10.0.0.2")
)

const probeQPN = 7

func probePacket(psn uint32) *packet.Packet {
	return &packet.Packet{
		Eth: packet.Ethernet{Dst: probeDstMAC, Src: probeSrcMAC, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, ECN: packet.ECNECT0,
			Src: probeSrcIP, Dst: probeDstIP},
		UDP:     packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port},
		BTH:     packet.BTH{Opcode: packet.OpWriteMiddle, DestQP: probeQPN, PSN: psn},
		Payload: make([]byte, 1024),
	}
}

// perUnit times rounds batches of n units each and returns the p50 cost
// of one unit in nanoseconds. batch receives the round number.
func perUnit(rounds, n int, batch func(round int) error) (float64, error) {
	var ns []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := batch(r); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return p50(ns), nil
}

// sink keeps the compiler from discarding a probe's result.
var sink uint32

func runProbes(m map[string]float64) error {
	wire := probePacket(100).Serialize()
	const codecN = 4096
	var err error
	set := func(name string, rounds, n int, batch func(int) error) {
		if err == nil {
			m[name], err = perUnit(rounds, n, batch)
		}
	}

	buf := make([]byte, 0, len(wire))
	pkt := probePacket(100)
	set("packet.append_wire_ns", probeRounds, codecN, func(int) error {
		for i := 0; i < codecN; i++ {
			buf = pkt.AppendWire(buf[:0])
		}
		return nil
	})
	var into packet.Packet
	set("packet.decode_into_ns", probeRounds, codecN, func(int) error {
		for i := 0; i < codecN; i++ {
			if err := packet.DecodeInto(wire, &into); err != nil {
				return err
			}
		}
		return nil
	})
	set("packet.icrc_ns", probeRounds, codecN, func(int) error {
		for i := 0; i < codecN; i++ {
			sink += packet.ComputeICRC(wire[:len(wire)-4])
		}
		return nil
	})

	// One After plus the Step that fires it.
	s := sim.New(1)
	fired := 0
	tick := func() { fired++ }
	set("sim.event_ns", probeRounds, codecN, func(int) error {
		for i := 0; i < codecN; i++ {
			s.After(10, tick)
			s.Step()
		}
		return nil
	})

	// One frame across one link: Send, serialization, delivery.
	hs := sim.New(1)
	a, b := sim.Connect(hs, "probe-a", "probe-b", 100, 100)
	delivered := 0
	b.SetReceiver(func([]byte) { delivered++ })
	set("sim.port_hop_ns", probeRounds, probeBatch, func(int) error {
		for i := 0; i < probeBatch; i++ {
			a.Send(wire)
		}
		hs.Run()
		return nil
	})
	if err == nil && delivered != probeRounds*probeBatch {
		err = fmt.Errorf("sim.port_hop_ns: %d of %d frames delivered", delivered, probeRounds*probeBatch)
	}

	if err == nil {
		m["injector.pipeline_ns_per_pkt"], err = probeInjector()
	}
	if err == nil {
		m["dumper.capture_ns_per_pkt"], err = probeDumper(wire)
	}
	return err
}

// probeInjector pushes pre-serialised RoCE frames through a switch
// built from its public API alone: ingress parse, ITER tracking, rule
// lookup, forward to the far host and mirror to a dumper port. The cost
// includes the three link hops a packet's copies make.
func probeInjector() (float64, error) {
	s := sim.New(1)
	sw := injector.New(s, config.Default().Switch)
	src, swSrc := sim.Connect(s, "probe-src", "sw-src", 100, 100)
	dst, swDst := sim.Connect(s, "probe-dst", "sw-dst", 100, 100)
	dmp, swDmp := sim.Connect(s, "probe-dump", "sw-dump", 100, 100)
	sw.AttachHost(swSrc, probeSrcMAC)
	sw.AttachHost(swDst, probeDstMAC)
	sw.AttachDumper(swDmp, 1)
	sw.AddConnection(injector.ConnMeta{ReqIP: probeSrcIP, ReqQPN: probeQPN + 1, ReqIPSN: 0,
		RespIP: probeDstIP, RespQPN: probeQPN, RespIPSN: 0})
	forwarded, mirrored := 0, 0
	src.SetReceiver(func([]byte) {})
	dst.SetReceiver(func([]byte) { forwarded++ })
	dmp.SetReceiver(func([]byte) { mirrored++ })

	frames := make([][]byte, probeRounds*probeBatch)
	for i := range frames {
		frames[i] = probePacket(uint32(i)).Serialize()
	}
	ns, err := perUnit(probeRounds, probeBatch, func(r int) error {
		for _, f := range frames[r*probeBatch : (r+1)*probeBatch] {
			src.Send(f)
		}
		s.Run()
		return nil
	})
	if err == nil && (forwarded != len(frames) || mirrored != len(frames) || sw.Totals().RxRoCE != uint64(len(frames))) {
		err = fmt.Errorf("injector.pipeline_ns_per_pkt: of %d frames %d forwarded, %d mirrored, %d counted RoCE",
			len(frames), forwarded, mirrored, sw.Totals().RxRoCE)
	}
	return ns, err
}

// probeDumper feeds mirror copies to one dumper node over its port:
// RSS, ring admission, trim into the arena, service. The cost includes
// the link hop that delivers the frame, the only public way in.
func probeDumper(wire []byte) (float64, error) {
	s := sim.New(1)
	node := dumper.NewNode(s, 0, dumper.DefaultConfig())
	peer, port := sim.Connect(s, "probe-sw", "probe-dumper", 100, 100)
	node.AttachPort(port)
	peer.SetReceiver(func([]byte) {})

	// The injector randomises the UDP destination port so RSS spreads
	// one QP over the cores; do the same.
	frames := make([][]byte, probeBatch)
	for i := range frames {
		frames[i] = append([]byte(nil), wire...)
		packet.EmbedMirrorMeta(frames[i], packet.MirrorMeta{Seq: uint64(i + 1), Timestamp: int64(i)})
		packet.RewriteUDPDstPort(frames[i], uint16(0xC000+i))
	}
	ns, err := perUnit(probeRounds, probeBatch, func(int) error {
		for _, f := range frames {
			peer.Send(f)
		}
		s.Run()
		return nil
	})
	if got := len(node.Terminate()); err == nil && (got != probeRounds*probeBatch || node.RxDiscards != 0) {
		err = fmt.Errorf("dumper.capture_ns_per_pkt: captured %d of %d frames, %d discarded", got, probeRounds*probeBatch, node.RxDiscards)
	}
	return ns, err
}

// calibrate is host.calibration_ns: iCRC over a fixed 1 MiB buffer, a
// unit of this machine's speed for reading results across machines.
// Gating stays on raw numbers from paired runs.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	for i := 0; i < 20; i++ { // let the clock ramp up and the buffer fault in
		sink += packet.ComputeICRC(buf)
	}
	ns, _ := perUnit(21, 1, func(int) error {
		sink += packet.ComputeICRC(buf)
		return nil
	})
	return ns
}
