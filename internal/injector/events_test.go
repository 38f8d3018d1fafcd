package injector

import (
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

func TestDelayActionPostponesForwarding(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{
		SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 101, Iter: 1,
		Action: packet.EventDelay, Delay: 50 * sim.Microsecond,
	})
	var arrivals []struct {
		psn uint32
		at  sim.Time
	}
	r.fromB.SetReceiver(func(w []byte) {
		var pkt packet.Packet
		if packet.DecodeInto(w, &pkt) == nil {
			arrivals = append(arrivals, struct {
				psn uint32
				at  sim.Time
			}{pkt.BTH.PSN, r.s.Now()})
		}
	})
	for psn := uint32(100); psn < 103; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// PSN 101 arrives last, ~50µs after the others.
	if arrivals[2].psn != 101 {
		t.Fatalf("last arrival PSN = %d, want the delayed 101 (order: %v)", arrivals[2].psn, arrivals)
	}
	gap := arrivals[2].at.Sub(arrivals[0].at)
	if gap < 50*sim.Microsecond || gap > 52*sim.Microsecond {
		t.Fatalf("delayed packet arrived %v after first, want ≈ 50µs", gap)
	}
	// The mirror records the delay event.
	found := false
	for _, d := range r.dumps[0] {
		if m, ok := packet.ExtractMirrorMeta(d); ok && m.Event == packet.EventDelay {
			found = true
		}
	}
	if !found {
		t.Fatal("no mirror packet carries the delay event")
	}
}

func TestReorderActionSwapsWithNextPacket(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{
		SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 101, Iter: 1,
		Action: packet.EventReorder, ReorderOffset: 1,
	})
	var order []uint32
	r.fromB.SetReceiver(func(w []byte) {
		var pkt packet.Packet
		if packet.DecodeInto(w, &pkt) == nil {
			order = append(order, pkt.BTH.PSN)
		}
	})
	for psn := uint32(100); psn < 104; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	want := []uint32{100, 102, 101, 103}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestReorderOffsetTwo(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{
		SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1,
		Action: packet.EventReorder, ReorderOffset: 2,
	})
	var order []uint32
	r.fromB.SetReceiver(func(w []byte) {
		var pkt packet.Packet
		if packet.DecodeInto(w, &pkt) == nil {
			order = append(order, pkt.BTH.PSN)
		}
	})
	for psn := uint32(100); psn < 104; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	want := []uint32{101, 102, 100, 103}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestReorderOnLastPacketReleasesByTimeout(t *testing.T) {
	// A reorder on the final packet has nothing to overtake it; the
	// bounded hold must still deliver it.
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{
		SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1,
		Action: packet.EventReorder, ReorderOffset: 1,
	})
	var at sim.Time
	got := 0
	r.fromB.SetReceiver(func(w []byte) { got++; at = r.s.Now() })
	r.sendA(dataPkt(100, 0x200))
	r.s.Run()
	if got != 1 {
		t.Fatalf("packet lost: got %d", got)
	}
	if at < sim.Time(reorderMaxHold) {
		t.Fatalf("released at %v, want after the %v hold bound", at, reorderMaxHold)
	}
}

func TestTranslateIntentsCarriesDelayAndOffset(t *testing.T) {
	conns := []ConnMeta{{ReqIP: ipA, ReqQPN: 1, ReqIPSN: 100, RespIP: ipB, RespQPN: 2}}
	rules, err := TranslateIntents([]config.Event{
		{QPN: 1, PSN: 2, Iter: 1, Type: "delay", DelayUs: 75},
		{QPN: 1, PSN: 3, Iter: 1, Type: "reorder", Offset: 3},
	}, "write", conns, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Action != packet.EventDelay || rules[0].Delay != 75*sim.Microsecond {
		t.Fatalf("delay rule = %+v", rules[0])
	}
	if rules[1].Action != packet.EventReorder || rules[1].ReorderOffset != 3 {
		t.Fatalf("reorder rule = %+v", rules[1])
	}
}

// TestReorderOvertakeCreditsEveryHeldPacket holds three packets on one
// connection at once: PSNs 100, 101 and 102 with offsets 1, 2 and 1.
// PSN 103 overtakes all three and releases 100 and 102; 104 is the
// second packet to overtake 101 and releases it; 105 follows.
func TestReorderOvertakeCreditsEveryHeldPacket(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	for psn, off := range map[uint32]int{100: 1, 101: 2, 102: 1} {
		r.sw.InstallRule(Rule{
			SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: psn, Iter: 1,
			Action: packet.EventReorder, ReorderOffset: off,
		})
	}
	var order []uint32
	r.fromB.SetReceiver(func(w []byte) {
		if v, err := packet.ParseFrame(w); err == nil {
			order = append(order, v.PSN())
		}
	})
	for psn := uint32(100); psn <= 105; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	if want := []uint32{103, 100, 102, 104, 101, 105}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
