package dumper

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"

	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// sample is one point of a node's ring_occupancy track.
type sample struct {
	at  sim.Time
	val int64
}

// arrival is one mirror frame reaching the node.
type arrival struct {
	at   sim.Time
	wire []byte
}

// refRing is a naive model of one node's rings: every arrival and
// every service completion in time order, logged as the node-wide
// occupancy after it. It knows nothing of Node; it keeps a FIFO of
// completion times per core and picks cores with its own 5-tuple hash.
func refRing(cfg Config, arrivals []arrival) (log []sample, discards int) {
	type done struct {
		at   sim.Time
		core int
	}
	var pending []done
	busy := make([]sim.Time, cfg.Cores)
	depth := make([]int, cfg.Cores)
	queued := 0
	complete := func(before sim.Time) {
		for {
			first := -1
			for i, d := range pending {
				if d.at < before && (first < 0 || d.at < pending[first].at) {
					first = i
				}
			}
			if first < 0 {
				return
			}
			d := pending[first]
			pending = append(pending[:first], pending[first+1:]...)
			depth[d.core]--
			queued--
			log = append(log, sample{d.at, int64(queued)})
		}
	}
	for _, a := range arrivals {
		complete(a.at)
		h := fnv.New32a()
		h.Write(a.wire[23:24]) // protocol
		h.Write(a.wire[26:34]) // src+dst IP
		h.Write(a.wire[34:38]) // src+dst port
		c := int(h.Sum32() % uint32(cfg.Cores))
		if depth[c] >= cfg.RingDepth {
			discards++
			continue
		}
		depth[c]++
		queued++
		log = append(log, sample{a.at, int64(queued)})
		start := max(a.at, busy[c])
		busy[c] = start.Add(sim.TransferTime(len(a.wire), cfg.PerCoreGbps))
		pending = append(pending, done{busy[c], c})
	}
	complete(sim.MaxTime)
	return log, discards
}

// TestRingOccupancyMatchesReference drives a node through seeded bursts
// that overflow its rings, and holds what it published to the reference:
// the full per-change occupancy log filtered to the samples whose log2
// bucket differs from the previous kept one's, the exact peak as the
// ring_peak gauge, and one ring_full instant carrying the ring depth per
// discard.
//
// The schedule has no tie between an arrival and a completion, so the
// reference's order is the only one: frames are 125, 250 or 375 bytes on
// 1 Gbps cores (services of whole microseconds), and burst j arrives at
// a whole microsecond plus an offset no other burst uses, which every
// completion it starts keeps.
func TestRingOccupancyMatchesReference(t *testing.T) {
	base := len(mirrorFrame(0, 0, 0))
	overflowed := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		cfg := Config{Cores: 1 + rng.Intn(3), PerCoreGbps: 1, RingDepth: 2 + rng.Intn(12), TrimBytes: 128}
		var arrivals []arrival
		offsets := make([]int, 999) // a permutation of [0, 999)
		for i := range offsets {
			j := rng.Intn(i + 1)
			offsets[i], offsets[j] = offsets[j], i
		}
		us := 0
		for j := range 10 + rng.Intn(20) {
			us += 1 + rng.Intn(40)
			at := sim.Time(us*1000 + 1 + offsets[j])
			size := 125 * (1 + rng.Intn(3))
			for range 1 + rng.Intn(3*cfg.RingDepth) {
				seq := uint64(len(arrivals))
				arrivals = append(arrivals, arrival{at, mirrorFrame(seq, uint16(rng.Intn(1<<16)), size-base)})
			}
		}

		s := sim.New(seed)
		h := telemetry.NewHub()
		s.AttachHub(h)
		n := NewNode(s, 0, cfg)
		for _, a := range arrivals {
			s.At(a.at, func() { n.receive(a.wire, false) })
		}
		s.Run()

		log, discards := refRing(cfg, arrivals)
		var want []sample
		var peak int64
		last := 0
		for _, smp := range log {
			if b := bits.Len64(uint64(smp.val)); b != last {
				want = append(want, smp)
				last = b
			}
			peak = max(peak, smp.val)
		}
		var got []sample
		fulls := 0
		for i, ev := range h.Events() {
			switch {
			case ev.Track() != "dumper-0":
				t.Fatalf("seed %d: event %d on track %q", seed, i, ev.Track())
			case ev.Kind() == telemetry.KindDumperQueue && ev.Name() == "ring_occupancy":
				got = append(got, sample{sim.Time(ev.At), ev.Arg(0).Val})
			case ev.Kind() == telemetry.KindDumperDisc && ev.Name() == "ring_full":
				fulls++
				if d, ok := ev.Lookup("depth"); !ok || d.Val != int64(cfg.RingDepth) {
					t.Fatalf("seed %d: ring_full at %d carries depth %+v, want %d", seed, ev.At, d, cfg.RingDepth)
				}
			default:
				t.Fatalf("seed %d: unexpected event %s %q", seed, ev.Kind(), ev.Name())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d (%+v): ring_occupancy samples\n got  %v\n want %v\n from %v", seed, cfg, got, want, log)
		}
		if g := h.Registry().Gauge("dumper-0.ring_peak").Value(); g != peak {
			t.Fatalf("seed %d: ring_peak = %d, want %d", seed, g, peak)
		}
		if int(n.RxDiscards) != discards || fulls != discards {
			t.Fatalf("seed %d: node discarded %d, published %d ring_full, reference %d", seed, n.RxDiscards, fulls, discards)
		}
		if discards > 0 {
			overflowed++
		}
	}
	if overflowed < 10 {
		t.Fatalf("only %d of 40 seeds overflowed a ring: the bursts are too gentle", overflowed)
	}
}
