package inband

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// refHop is one hop of refCollector.
type refHop struct {
	name     string
	origin   bool
	mint     uint64
	stamps   uint64
	maxQueue int64
	maxUtil  uint16
	lastAt   int64
	lastBusy int64
	lastUtil uint16
}

// refCollector is the collector's specification, written without its
// log: every stamp appended to a plain []Stamp, each transit's stamps
// indexed by transit ID, tags and binds in maps.
type refCollector struct {
	hops   []refHop
	stamps []Stamp
	// live indexes the stamps of each transit minted since the last
	// Reset; a transit absent from it is not stamped.
	live   map[uint64][]int
	recent map[uint16]uint64
	binds  map[uint64]uint64
}

func newRefCollector() *refCollector {
	return &refCollector{live: map[uint64][]int{}, recent: map[uint16]uint64{}, binds: map[uint64]uint64{}}
}

func (r *refCollector) register(name string, origin bool) {
	r.hops = append(r.hops, refHop{name: name, origin: origin})
}

func (r *refCollector) append(hop uint8, transit uint64, at, queue int64, util uint16) {
	h := &r.hops[hop]
	r.live[transit] = append(r.live[transit], len(r.stamps))
	r.stamps = append(r.stamps, Stamp{Transit: transit, Hop: hop, AtNs: at, QueueBytes: queue, UtilPermille: util})
	h.stamps++
	h.maxQueue = max(h.maxQueue, queue)
	h.maxUtil = max(h.maxUtil, util)
}

// stampWire returns the tag the frame leaves with and whether the hop
// stamped it.
func (r *refCollector) stampWire(tag uint16, hop uint8, at, queue, busy int64) (uint16, bool) {
	h := &r.hops[hop]
	var transit uint64
	if h.origin {
		h.mint++
		transit = (uint64(hop)+1)<<32 | h.mint&0xFFFFFFFF
		tag = (uint16(hop)+1)<<tagCounterBits | uint16((h.mint-1)%(1<<tagCounterBits))
		r.recent[tag] = transit
		r.live[transit] = nil
	} else {
		transit = r.recent[tag]
		if _, ok := r.live[transit]; !ok {
			return tag, false
		}
	}
	util := h.lastUtil
	if elapsed := at - h.lastAt; elapsed > 0 {
		u := (busy - h.lastBusy) * 1000 / elapsed
		util = uint16(min(max(u, 0), 1000))
		h.lastAt, h.lastBusy, h.lastUtil = at, busy, util
	}
	r.append(hop, transit, at, max(queue, 0), util)
	return tag, true
}

func (r *refCollector) pipeline(tag uint16, hop uint8, at int64, lineageID uint64) bool {
	transit := r.recent[tag]
	if _, ok := r.live[transit]; !ok {
		return false
	}
	r.binds[lineageID] = transit
	r.append(hop, transit, at, 0, 0)
	return true
}

func (r *refCollector) reset() {
	r.stamps = nil
	r.live = map[uint64][]int{}
	r.binds = map[uint64]uint64{}
	for i := range r.hops {
		h := &r.hops[i]
		h.stamps, h.maxQueue, h.maxUtil = 0, 0, 0
	}
}

func (r *refCollector) transitCount() uint64 {
	var n uint64
	for _, h := range r.hops {
		n += h.mint
	}
	return n
}

func (r *refCollector) hopSummaries() []HopSummary {
	out := make([]HopSummary, len(r.hops))
	for i, h := range r.hops {
		out[i] = HopSummary{ID: uint8(i), Name: h.name, Origin: h.origin, Stamps: h.stamps, MaxQueueBytes: h.maxQueue, MaxUtilPermille: h.maxUtil}
	}
	return out
}

// join annotates g's chains from the per-transit index; PerHop is left
// to the digest both sides share.
func (r *refCollector) join(g *lineage.Graph) []ChainHops {
	if g == nil || len(g.Chains) == 0 {
		return nil
	}
	var out []ChainHops
	for _, ch := range g.Chains {
		ah := ChainHops{Lineage: ch.Lineage, Event: ch.Event.String(), PSN: ch.PSN, Completed: ch.Completed}
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			nh := NodeHops{Kind: string(n.Kind), AtNs: int64(n.At), PSN: n.PSN, Seq: n.Seq}
			if transit, ok := r.binds[n.Seq]; ok && n.Seq != 0 {
				nh.Transit = transit
				idx := r.live[transit]
				for k, si := range idx {
					s := &r.stamps[si]
					cr := HopCrossing{Hop: r.hops[s.Hop].name, AtNs: s.AtNs, QueueBytes: s.QueueBytes, UtilPermille: s.UtilPermille}
					if k+1 < len(idx) {
						cr.LatencyNs = r.stamps[idx[k+1]].AtNs - s.AtNs
					}
					nh.Hops = append(nh.Hops, cr)
				}
			}
			ah.Nodes = append(ah.Nodes, nh)
		}
		out = append(out, ah)
	}
	return out
}

// fuzzReader hands out the fuzz input a few bytes at a time, zeros once
// it runs out.
type fuzzReader []byte

func (f *fuzzReader) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzReader) uint(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

// time advances the clock by a small, a medium or a large step, moves
// it back, or jumps anywhere below 2^40.
func (f *fuzzReader) time(now int64) int64 {
	switch f.byte() % 5 {
	case 0:
		return now + int64(f.byte())
	case 1:
		return now + int64(f.uint(2))
	case 2:
		return now + int64(f.uint(5))
	case 3:
		return now - int64(f.byte())
	default:
		return int64(f.uint(5))
	}
}

// quantity is a queue depth or a busy time: small, up to 2^40, or
// negative.
func (f *fuzzReader) quantity() int64 {
	switch f.byte() % 4 {
	case 0:
		return int64(f.byte())
	case 1:
		return int64(f.uint(2))
	case 2:
		return int64(f.uint(5))
	default:
		return -int64(f.uint(2))
	}
}

// Hops of the fuzzed fabric: origins 0 and 1, two transit hops and
// the pipeline.
const (
	fzSwitch, fzSpine, fzPipe = 2, 3, 4
	fzFrames                  = 6
	fzSeqs                    = 3000
	// fzBudget bounds the calls one input makes.
	fzBudget = 20000
)

// driveCollector decodes data into StampWire, Pipeline and Reset calls on
// c and r alike and checks the collector against the reference after
// every Reset and at the end. It returns how many log pages c grew.
func driveCollector(t *testing.T, c *Collector, r *refCollector, data []byte) int {
	for _, h := range []struct {
		name   string
		origin bool
	}{{"nic-a", true}, {"nic-b", true}, {"sw", false}, {"spine", false}, {"sw-pipeline", false}} {
		c.RegisterHop(h.name, h.origin)
		r.register(h.name, h.origin)
	}
	var frames [fzFrames][]byte
	var tags [fzFrames]uint16
	for i := range frames {
		frames[i] = roceWire()
		tags[i] = packet.INTTransit(frames[i])
	}
	nonRoCE := make([]byte, len(frames[0]))
	in := fuzzReader(data)
	var now int64
	budget := fzBudget
	stamp := func(k int, hop uint8) {
		budget--
		now = in.time(now)
		queue, busy := in.quantity(), in.quantity()
		c.StampWire(frames[k], hop, now, queue, sim.Duration(busy))
		tag, ok := r.stampWire(tags[k], hop, now, queue, busy)
		tags[k] = tag
		checkWire(t, frames[k], tag, hop, ok)
	}
	pipe := func(k int, seq uint64) {
		budget--
		now = in.time(now)
		c.Pipeline(frames[k], fzPipe, now, seq)
		checkWire(t, frames[k], tags[k], fzPipe, r.pipeline(tags[k], fzPipe, now, seq))
	}
	pages := 0
	for len(in) > 0 && budget > 0 {
		k := int(in.byte() % fzFrames)
		switch op := in.byte(); op % 16 {
		case 0, 1, 2:
			stamp(k, uint8(op%2))
		case 3, 4, 5:
			stamp(k, fzSwitch+op%2)
		case 6, 7, 8:
			pipe(k, in.uint(2)%fzSeqs)
		case 9:
			// Any tag, stale, foreign or zero (a fresh frame).
			if tags[k] = uint16(in.uint(2)); tags[k] == 0 {
				frames[k] = roceWire()
			}
			packet.EmbedINTStamp(frames[k], packet.INTStamp{Transit: tags[k]})
		case 10:
			c.StampWire(nonRoCE, op%5, now, 0, 0)
		case 11:
			// A burst of whole transits, two at a time with their
			// stamps interleaved: origin, pipeline, one or two transit
			// hops, each packet its own frame slot in turn.
			seq := in.uint(2) % fzSeqs
			for n := 16 * (1 + int(in.byte())); n > 0 && budget > 0; n-- {
				a, b := (k+1)%fzFrames, (k+2)%fzFrames
				k = b
				stamp(a, uint8(n%2))
				stamp(b, uint8(n+1)%2)
				pipe(a, seq)
				pipe(b, (seq+1)%fzSeqs)
				stamp(a, fzSwitch)
				stamp(b, fzSwitch)
				if n%3 == 0 {
					stamp(a, fzSpine)
				}
				seq = (seq + 2) % fzSeqs
			}
		case 12:
			pages = max(pages, len(c.log))
			compareCollectors(t, c, r, in)
			c.Reset()
			r.reset()
		default:
			stamp(k, uint8(in.byte()%5))
		}
	}
	pages = max(pages, len(c.log))
	compareCollectors(t, c, r, in)
	return pages
}

// checkWire requires a stamped frame to carry the reference's tag and
// the stamping hop.
func checkWire(t *testing.T, wire []byte, tag uint16, hop uint8, stamped bool) {
	t.Helper()
	if s, ok := packet.DecodeINTStamp(wire); stamped && (!ok || s.Transit != tag || s.Hop != hop) {
		t.Fatalf("hop %d left the frame stamped %+v (ok=%v), want tag %d", hop, s, ok, tag)
	}
}

// compareCollectors holds every accessor of c to the reference, and
// Join to the reference's join over a graph drawn from the remaining
// input.
func compareCollectors(t *testing.T, c *Collector, r *refCollector, in fuzzReader) {
	t.Helper()
	if got := c.Stamps(); len(got) != len(r.stamps) || (len(got) > 0 && !reflect.DeepEqual(got, r.stamps)) {
		t.Fatalf("Stamps holds %d stamps, the reference %d:\n%+v\nwant\n%+v", len(got), len(r.stamps), got, r.stamps)
	}
	if c.StampCount() != len(r.stamps) {
		t.Fatalf("StampCount = %d, the reference holds %d", c.StampCount(), len(r.stamps))
	}
	if c.TransitCount() != r.transitCount() {
		t.Fatalf("TransitCount = %d, want %d", c.TransitCount(), r.transitCount())
	}
	if c.BindCount() != len(r.binds) {
		t.Fatalf("BindCount = %d, want %d", c.BindCount(), len(r.binds))
	}
	for seq := uint64(0); seq < fzSeqs+2; seq++ {
		got, ok := c.TransitOf(seq)
		want, wok := r.binds[seq]
		if got != want || ok != wok {
			t.Fatalf("TransitOf(%d) = %d/%v, want %d/%v", seq, got, ok, want, wok)
		}
	}
	if got, want := c.Hops(), r.hopSummaries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Hops = %+v, want %+v", got, want)
	}

	// One chain per bound lineage ID, in ID order, plus chains of IDs
	// drawn from the input (bound, unbound or zero), each with a
	// probe-derived node.
	g := &lineage.Graph{}
	chain := func(seq uint64) {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes,
			lineage.Node{ID: id, Kind: lineage.NodeInject, At: sim.Time(seq), PSN: uint32(seq), Seq: seq},
			lineage.Node{ID: id + 1, Kind: lineage.NodeRewind, At: sim.Time(seq + 1)})
		g.Chains = append(g.Chains, lineage.Chain{Lineage: seq, Event: packet.EventDrop, PSN: uint32(seq), Nodes: []int{id, id + 1}, Completed: seq%2 == 0})
	}
	for seq := uint64(0); seq < fzSeqs; seq++ {
		if _, ok := r.binds[seq]; ok {
			chain(seq)
		}
	}
	for range 8 {
		chain(binary.BigEndian.Uint64(append(make([]byte, 6), in.byte(), in.byte())) % (fzSeqs + 2))
	}
	got, want := c.Join(g), r.join(g)
	if len(got) != len(want) {
		t.Fatalf("Join gave %d chains, the reference %d", len(got), len(want))
	}
	for i := range want {
		gc := got[i]
		gc.PerHop = nil
		if !reflect.DeepEqual(gc, want[i]) {
			t.Fatalf("chain %d joined as\n%+v\nthe reference gives\n%+v", i, gc, want[i])
		}
	}
}

// referenceSeeds are the fuzz target's seed inputs; the last one grows
// the log past its first page.
var referenceSeeds = [][]byte{
	{},
	{0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 50, 1, 0, 0, 0, 6, 0, 1, 0, 20},
	{0, 1, 2, 4, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 1, 12, 0, 3, 1, 2, 0, 7, 0, 0, 3},
	{1, 0, 4, 1, 2, 3, 4, 5, 2, 1, 2, 3, 4, 5, 2, 9, 0, 1, 3, 3, 1, 1, 1, 7, 0, 42, 2, 1, 2, 3, 4, 5},
	{3, 11, 0, 7, 255, 2, 1, 2, 3, 4, 5, 2, 9, 9, 9, 9, 9, 3, 1, 2, 3, 4, 5, 0, 3, 3},
	{0, 0, 0, 10, 0, 5, 0, 3, 1, 1, 0, 20, 0, 1, 0, 2, 0, 3, 0, 7, 0, 9, 0, 4, 1, 4, 0, 11, 0, 2, 0, 1, 0, 6, 0, 5, 0, 3, 1, 7, 0, 6, 0, 4},
	{2, 11, 0, 1, 255, 0, 12, 4, 11, 0, 9, 255, 2, 255, 255, 255, 255, 255, 2, 255, 255, 255, 255, 255},
}

// FuzzCollectorMatchesReference drives random StampWire, Pipeline and
// Reset sequences (two origins, times and queues up to 2^40, stale and
// foreign tags, more than a page of records) into a Collector and into
// refCollector, and requires Stamps, StampCount, TransitCount,
// BindCount, TransitOf, Hops and Join to agree.
func FuzzCollectorMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveCollector(t, new(Collector), newRefCollector(), data)
	})
}

// TestReferenceSeedsSpanPages keeps the seeds honest: at least one of
// them must grow the stamp log past its first page.
func TestReferenceSeedsSpanPages(t *testing.T) {
	most := 0
	for _, s := range referenceSeeds {
		most = max(most, driveCollector(t, new(Collector), newRefCollector(), s))
	}
	if most < 2 {
		t.Fatalf("the seeds grow at most %d log page(s)", most)
	}
}
