package dumper_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
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
// done holds, per arrival, the instant its core finishes with it, or
// -1 for an arrival its full ring discarded.
func refRing(cfg dumper.Config, arrivals []arrival) (log []sample, discards int, done []sim.Time) {
	type completion struct {
		at   sim.Time
		core int
	}
	var pending []completion
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
			done = append(done, -1)
			continue
		}
		depth[c]++
		queued++
		log = append(log, sample{a.at, int64(queued)})
		start := max(a.at, busy[c])
		busy[c] = start.Add(sim.TransferTime(len(a.wire), cfg.PerCoreGbps))
		pending = append(pending, completion{busy[c], c})
		done = append(done, busy[c])
	}
	complete(sim.MaxTime)
	return log, discards, done
}

// bursts draws seed's schedule: 10 to 29 bursts of up to three ring
// depths of same-sized frames with random destination ports, on one to
// three 1 Gbps cores. It has no tie between an arrival and a
// completion, so the reference's order is the only one: frames are 125,
// 250 or 375 bytes (services of whole microseconds), and burst j arrives
// at a whole microsecond plus an offset in [1, 999] no other burst uses,
// which every completion it starts keeps. No event falls on a whole
// microsecond.
func bursts(rng *sim.RNG) (dumper.Config, []arrival) {
	base := len(dumper.MirrorFrame(0, 0, 0))
	cfg := dumper.Config{Cores: 1 + rng.Intn(3), PerCoreGbps: 1, RingDepth: 2 + rng.Intn(12), TrimBytes: 128}
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
			arrivals = append(arrivals, arrival{at, dumper.MirrorFrame(seq, uint16(rng.Intn(1<<16)), size-base)})
		}
	}
	return cfg, arrivals
}

// TestRingOccupancyMatchesReference drives a node through seeded bursts
// that overflow its rings, and holds what it published to the reference:
// the full per-change occupancy log filtered to the samples whose log2
// bucket differs from the previous kept one's, the exact peak as the
// ring_peak gauge, and one ring_full instant carrying the ring depth per
// discard.
func TestRingOccupancyMatchesReference(t *testing.T) {
	overflowed := 0
	for seed := int64(1); seed <= 40; seed++ {
		cfg, arrivals := bursts(sim.NewRNG(seed))

		s := sim.New(seed)
		h := telemetry.NewHub()
		s.AttachHub(h)
		n := dumper.NewNode(s, 0, cfg)
		for _, a := range arrivals {
			s.At(a.at, func() { n.Deliver(a.wire) })
		}
		s.Run()

		log, discards, _ := refRing(cfg, arrivals)
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
		reg := telemetry.NewRegistry()
		n.Publish(reg)
		if g := reg.Snapshot().Gauges; len(g) != 1 || g[0].Name != "dumper-0.ring_peak" || g[0].Value != peak {
			t.Fatalf("seed %d: published gauges %+v, want dumper-0.ring_peak = %d", seed, g, peak)
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

// TestCaptureMatchesReference runs the same seeded bursts into a
// one-node pool and TERMs it at a random whole microsecond a few
// microseconds into a random burst, while records are still in service,
// then lets the simulation run out. The reference predicts the capture
// from its own rings: an admitted arrival is captured when its service
// ends before TERM, trimmed to 128 bytes, its UDP destination port back
// at 4791; a discarded one is absent. Pool.Terminate's logs, taken at
// TERM and again after the run, must give exactly that trace through
// trace.Reconstruct, byte for byte, and the node's records must be the
// same copies in arrival order.
func TestCaptureMatchesReference(t *testing.T) {
	cut := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		cfg, arrivals := bursts(rng)
		burst := arrivals[rng.Intn(len(arrivals))].at
		term := (burst/1000 + sim.Time(1+rng.Intn(3))) * 1000

		_, _, done := refRing(cfg, arrivals)
		var want [][]byte
		var seqs []uint64
		inService := 0
		for i, a := range arrivals {
			switch {
			case done[i] < 0 || a.at > term:
			case done[i] > term:
				inService++
			default:
				rec := bytes.Clone(a.wire[:min(len(a.wire), cfg.TrimBytes)])
				rec[36], rec[37] = 4791>>8, 4791&0xFF
				want = append(want, rec)
				seqs = append(seqs, uint64(i))
			}
		}
		if inService > 0 {
			cut++
		}

		s := sim.New(seed)
		pool := dumper.NewPool(s, 1, cfg)
		n := pool.Nodes[0]
		for _, a := range arrivals {
			s.At(a.at, func() { n.Deliver(a.wire) })
		}
		var atTerm []dumper.Log
		s.At(term, func() { atTerm = pool.Terminate() })
		s.Run()

		recs := n.Terminate()
		if len(recs) != len(want) || int(n.Captured) != len(want) {
			t.Fatalf("seed %d (%+v, TERM at %d): node holds %d records and counted %d, reference %d (%d in service at TERM)",
				seed, cfg, term, len(recs), n.Captured, len(want), inService)
		}
		for _, c := range []struct {
			name string
			logs []dumper.Log
		}{{"at TERM", atTerm}, {"after the run", pool.Terminate()}} {
			name, logs := c.name, c.logs
			tr, err := trace.Reconstruct(logs)
			if err != nil {
				t.Fatalf("seed %d, logs %s: %v", seed, name, err)
			}
			if len(tr.Entries) != len(want) {
				t.Fatalf("seed %d, logs %s: %d entries, reference %d", seed, name, len(tr.Entries), len(want))
			}
			for i, e := range tr.Entries {
				if e.Meta().Seq != seqs[i] || !bytes.Equal(e.Bytes(), want[i]) {
					t.Fatalf("seed %d, logs %s: entry %d is seq %d\n% x\nreference seq %d\n% x",
						seed, name, i, e.Meta().Seq, e.Bytes(), seqs[i], want[i])
				}
				if &e.Bytes()[0] != &recs[i][0] {
					t.Fatalf("seed %d, logs %s: entry %d is not the node's record %d", seed, name, i, i)
				}
			}
		}
	}
	if cut < 10 {
		t.Fatalf("only %d of 40 seeds had records in service at TERM: the cut is too late", cut)
	}
}
