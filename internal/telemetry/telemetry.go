// Package telemetry is Lumina's deterministic observability layer: a
// hub that logs the probes components emit and owns the run's metrics
// Registry, a Chrome-trace-event timeline exporter, and the types of
// metrics.json. Components take their Histograms from the hub when built,
// one per metric name, and publish their plain-field counts at run end.
//
// The design constraint is the simulator's: bit-for-bit determinism.
// Telemetry never schedules simulation events, never reads the RNG, and
// never consults wall-clock time — it only records what the simulation
// already computed, stamped with the virtual clock. Two runs with the
// same seed therefore produce byte-identical metrics.json and timeline
// output.
//
// The second constraint is cost when nobody is listening. Every probe
// call site goes through a *Hub whose methods are nil-receiver no-ops:
// a component holds the hub pointer (nil when no sink is attached) and
// calls h.Emit(...) unconditionally; with no hub the call is a pointer
// test and a return. The repository benchmark's bulk_write workload
// times a run with no hub; bulk_explain times the same run with one.
//
// The third constraint is cost when somebody is listening: a run with
// every observer on replays the history of a bare run and should cost
// little more. An emit therefore appends one record to a log and nothing
// else. What emits from the same place share — kind, track, name and
// argument keys, as one site — is stored once in the hub's intern table,
// and so is each distinct string value. The log, which the intern table
// owns, holds per emit the site's index, the stamp as a delta from the
// previous one, the duration and the arguments, each a varint and a
// string as its intern index: a timer arm takes about nine bytes. Its
// pages start small and double up to a cap (pageMin..pageMax): a
// five-message run pays for half a KiB, a 50 000-probe run for about a
// dozen allocations, and a record is never moved once written. The
// caller's argument list never escapes (it stays on the caller's stack),
// and a site repeated by every packet is found in a small cache of recent
// lookups without hashing its strings. The log is decoded one way: a
// cursor (page, offset, stamp base) steps through it a record at a time.
// WriteTimeline walks the log in place with one, its track rows read off
// the intern table. Events() hands out a flat slice of 32-byte Events
// for lineage, which indexes the stream: each holds its stamp, its
// duration, its site and where its arguments start in the log, and its
// accessors (Kind, Track, Name, Arg, Lookup) read through the intern
// table. The slice is incremental because a run asks twice — before the
// verdict probes and after: the hub keeps its cursor, so each call
// decodes only the records logged since the previous one, into a stream
// grown once to fit them and a few more, and the second call neither
// copies the stream nor decodes the run again.
//
// This package deliberately imports nothing but the standard library so
// that package sim can wire a Hub into the Simulator without an import
// cycle; virtual time crosses the boundary as int64 nanoseconds.
package telemetry

import "encoding/binary"

// Kind names a probe event family. Kinds are dot-namespaced by the
// emitting subsystem; see the README's probe taxonomy.
type Kind string

// The probe taxonomy. Components may emit further kinds; these are the
// ones the built-in instrumentation publishes.
const (
	KindQPState      Kind = "qp.state"      // QP FSM transitions (RESET/RTS/ERROR)
	KindRetransTimer Kind = "retrans.timer" // retransmission timer arm/fire
	KindRetransGBN   Kind = "retrans.gbn"   // Go-back-N NAK receipt and rewind
	KindCNPGen       Kind = "cnp.gen"       // CNP emitted or rate-limited away
	KindDCQCNRate    Kind = "dcqcn.rate"    // reaction-point paced rate (counter)
	KindInjectHit    Kind = "inject.hit"    // injector match-action rule hit
	KindDumperDisc   Kind = "dumper.discard"
	KindDumperQueue  Kind = "dumper.queue"     // ring occupancy (counter)
	KindTrafficMsg   Kind = "traffic.msg"      // message post / completion
	KindRunPhase     Kind = "run.phase"        // orchestrator phase markers
	KindNICWedge     Kind = "nic.wedge"        // RX pipeline wedge span
	KindTracePkt     Kind = "trace.pkt"        // packet synthesized from a captured trace
	KindVerdict      Kind = "analyzer.verdict" // post-run analyzer pass/fail instants
)

// Field is one key/value argument of an emit. Val carries numeric
// values; Str, when non-empty, takes precedence and carries a string.
// Emit* take their arguments as an ordered list (not a map), which keeps
// serialization deterministic; nothing stores a Field.
type Field struct {
	Key string
	Val int64
	Str string
}

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, Val: v} }

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, Str: v} }

// maxArgs is the most arguments one emit may carry: rnic's wqe_complete
// has five.
const maxArgs = 5

// Event is one probe-bus record: a fixed-size value whose only pointer is
// to its hub's intern table. The strings of an event — kind, track, name,
// argument keys and string values — live there once per hub, and so does
// the log its arguments are read from; the event holds its site's index
// and where in the log its arguments start.
type Event struct {
	// At is the virtual-time stamp in nanoseconds.
	At int64
	// Dur, when positive, makes this a span (Chrome "X" event) rather
	// than an instant.
	Dur  int64
	syms *symbols
	site uint32
	// args locates the event's arguments in syms' log (see locator).
	args uint32
}

// site is what an emit shares with every other emit from the same place:
// its kind, track and name and its arguments' keys and types.
type site struct {
	kind        Kind
	track, name string
	keys        [maxArgs]string
	n           uint8 // argument count
	strs        uint8 // bit i: argument i is a string
	counter     bool
}

// symbols is a hub's intern table. Entries are only ever appended, so an
// index an event holds stays valid for the table's lifetime.
type symbols struct {
	sites []entry
	// named maps a track and name to the index + 1 of the latest site
	// with both; entry.prev chains it to the earlier ones.
	named map[[2]string]uint32
	strs  []string
	strID map[string]uint32
	// recent holds, per slot, the index + 1 of the last site looked up
	// there (0: none). The probes a long run repeats most (occupancy
	// samples, timer arms, rate changes) each come from one site, so
	// most lookups end here on one comparison.
	recent [256]uint32

	// pages is the probe log: one varint record per emit (see append),
	// in pages that are never moved or rewritten, so a locator stays
	// valid for the table's lifetime.
	pages [][]byte
	// lastAt is the stamp of the latest record, which the next one is
	// written relative to.
	lastAt int64
}

// Log page sizes, in bytes. Each new page doubles the previous one up to
// the cap: a five-message run pays for one small page, a long run
// allocates one page every few thousand probes, and nothing written is
// ever copied.
const (
	pageMin = 512
	pageMax = 64 << 10
)

// maxRecord is the widest record: a site index, a stamp delta, a
// duration and maxArgs arguments.
const maxRecord = binary.MaxVarintLen32 + (2+maxArgs)*binary.MaxVarintLen64

// locator packs a position in the log as page<<16 | offset. An offset
// fits in 16 bits because pages are at most pageMax bytes, and a page
// index does because append refuses to start page 1<<16: 2^16 pages of
// 64 KiB hold more than 10^9 probes, whose flat stream alone would need
// 32 GB.
func locator(page, off int) uint32 { return uint32(page)<<16 | uint32(off) }

// unpack is locator's inverse.
func unpack(loc uint32) (page, off int) { return int(loc >> 16), int(loc & 0xffff) }

// at returns the log from loc on, to the end of its page.
func (t *symbols) at(loc uint32) []byte {
	page, off := unpack(loc)
	return t.pages[page][off:]
}

// append writes one record: the site (uvarint), the stamp minus the
// previous record's (zigzag varint: the clock of a test oracle can run
// backwards), the duration (uvarint), then one zigzag varint per
// argument, a string argument as its intern index. A record never
// straddles a page.
func (t *symbols) append(site uint32, at, dur int64, strs uint8, args []Field) {
	n := len(t.pages)
	if n == 0 || cap(t.pages[n-1])-len(t.pages[n-1]) < maxRecord {
		if n == 1<<16 {
			// invariant: 2^16 pages hold more than 10^9 probes, whose flat Events stream (32 GB) no run reaches.
			panic("telemetry: probe log exceeds 2^16 pages")
		}
		size := pageMin
		if n > 0 {
			size = min(2*cap(t.pages[n-1]), pageMax)
		}
		t.pages = append(t.pages, make([]byte, 0, size))
		n++
	}
	p := binary.AppendUvarint(t.pages[n-1], uint64(site))
	p = binary.AppendVarint(p, at-t.lastAt)
	p = binary.AppendUvarint(p, uint64(dur))
	for i := range args {
		v := args[i].Val
		if strs&(1<<i) != 0 {
			v = t.str(args[i].Str)
		}
		p = binary.AppendVarint(p, v)
	}
	t.pages[n-1] = p
	t.lastAt = at
}

// cursor is a position in the log: the page and offset of the next
// record to decode, and the stamp that record's delta is taken from.
type cursor struct {
	page, off int
	at        int64
}

// next decodes the record at c and moves c past it; false at the end of
// the log. A cursor at the end stays valid: it reads what is logged next.
func (t *symbols) next(c *cursor) (Event, bool) {
	if c.page < len(t.pages)-1 && c.off == len(t.pages[c.page]) {
		c.page, c.off = c.page+1, 0
	}
	if c.page >= len(t.pages) || c.off == len(t.pages[c.page]) {
		return Event{}, false
	}
	b := t.pages[c.page][c.off:]
	site, n := uvarint(b)
	b = b[n:]
	delta, n := uvarint(b)
	b = b[n:]
	dur, n := uvarint(b)
	b = b[n:]
	c.at += unzigzag(delta)
	e := Event{At: c.at, Dur: int64(dur), syms: t, site: uint32(site), args: locator(c.page, len(t.pages[c.page])-len(b))}
	for range t.sites[site].n {
		b = skipVarint(b)
	}
	c.off = len(t.pages[c.page]) - len(b)
	return e, true
}

// uvarint is binary.Uvarint with a fast path for the one-byte values
// most fields of a record hold.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// unzigzag undoes binary.AppendVarint's zigzag encoding.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// skipVarint returns b past its first varint.
func skipVarint(b []byte) []byte {
	for b[0] >= 0x80 {
		b = b[1:]
	}
	return b[1:]
}

type entry struct {
	site
	prev uint32
}

// site returns the index of the site of an emit with these parameters,
// interning it on first sight.
func (t *symbols) site(kind Kind, track, name string, counter bool, strs uint8, args []Field) uint32 {
	r := &t.recent[slot(track, name, len(args))]
	if *r != 0 && t.sites[*r-1].matches(kind, track, name, counter, strs, args) {
		return *r - 1
	}
	k := [2]string{track, name}
	head := t.named[k]
	id := head
	for id != 0 && !t.sites[id-1].matches(kind, track, name, counter, strs, args) {
		id = t.sites[id-1].prev
	}
	if id == 0 {
		s := site{kind: kind, track: track, name: name, n: uint8(len(args)), strs: strs, counter: counter}
		for i := range args {
			s.keys[i] = args[i].Key
		}
		t.sites = append(t.sites, entry{site: s, prev: head})
		id = uint32(len(t.sites))
		t.named[k] = id
	}
	*r = id
	return id - 1
}

func (s *site) matches(kind Kind, track, name string, counter bool, strs uint8, args []Field) bool {
	if int(s.n) != len(args) || s.strs != strs || s.counter != counter || s.kind != kind || s.track != track || s.name != name {
		return false
	}
	for i := range args {
		if s.keys[i] != args[i].Key {
			return false
		}
	}
	return true
}

// slot spreads sites over recent by the tail of their track (where
// per-QP and per-node tracks differ), their name and their arity.
func slot(track, name string, n int) int {
	h := uint32(len(name)) | uint32(n)<<8
	for i := max(len(track)-4, 0); i < len(track); i++ {
		h = h*31 + uint32(track[i])
	}
	if name != "" {
		h = h*31 + uint32(name[0])
	}
	return int(h * 0x9e3779b1 >> 24) // a Fibonacci hash onto 256 slots
}

func (t *symbols) str(v string) int64 {
	id, ok := t.strID[v]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, v)
		t.strID[v] = id
	}
	return int64(id)
}

// noSite is what the accessors read on an Event the hub did not record.
var noSite site

func (e *Event) info() *site {
	if e.syms == nil {
		return &noSite
	}
	return &e.syms.sites[e.site].site
}

// Kind is the event family.
func (e *Event) Kind() Kind { return e.info().kind }

// Track is the component instance the event belongs to (one timeline
// row per track).
func (e *Event) Track() string { return e.info().track }

// Name is the specific occurrence.
func (e *Event) Name() string { return e.info().name }

// Counter reports a sampled-value event (Chrome "C" event); the value is
// Arg(0).Val.
func (e *Event) Counter() bool { return e.info().counter }

// NumArgs is the number of arguments the event was emitted with.
func (e *Event) NumArgs() int { return int(e.info().n) }

// Arg returns argument i, 0 <= i < NumArgs(), as it was emitted.
func (e *Event) Arg(i int) Field {
	s := e.info()
	if i >= int(s.n) {
		return Field{}
	}
	b := e.syms.at(e.args)
	for range i {
		b = skipVarint(b)
	}
	v, _ := binary.Varint(b)
	if s.strs&(1<<i) != 0 {
		return Field{Key: s.keys[i], Str: e.syms.strs[v]}
	}
	return Field{Key: s.keys[i], Val: v}
}

// Lookup returns the first argument named key.
func (e *Event) Lookup(key string) (Field, bool) {
	s := e.info()
	for i := range int(s.n) {
		if s.keys[i] == key {
			return e.Arg(i), true
		}
	}
	return Field{}, false
}

// Hub is the probe log and the run's Registry. A nil *Hub is detached:
// every method on it returns at once, so components emit unconditionally.
type Hub struct {
	clock func() int64
	syms  *symbols
	reg   *Registry

	// flat is the stream Events has handed out so far, read the
	// position just past its last record, and pending the number of
	// records logged since.
	flat    []Event
	read    cursor
	pending int
}

// record logs one event, interning its strings.
func (h *Hub) record(kind Kind, track, name string, dur int64, counter bool, args []Field) {
	if len(args) > maxArgs {
		// invariant: every emit site passes a fixed argument list of at most maxArgs fields; the widest, rnic's wqe_complete, has five.
		panic("telemetry: more than maxArgs arguments")
	}
	var strs uint8 // bit i: argument i is a string
	for i := range args {
		if args[i].Str != "" {
			strs |= 1 << i
		}
	}
	site := h.syms.site(kind, track, name, counter, strs, args)
	h.syms.append(site, h.now(), dur, strs, args)
	h.pending++
}

// NewHub returns an attached hub with an empty log and registry. Until
// SetClock is called (sim.Simulator.AttachHub does it), events are stamped 0.
func NewHub() *Hub {
	return &Hub{syms: &symbols{named: map[[2]string]uint32{}, strID: map[string]uint32{}}, reg: NewRegistry()}
}

// SetClock installs the virtual-clock reader used to stamp events.
func (h *Hub) SetClock(clock func() int64) {
	if h == nil {
		return
	}
	h.clock = clock
}

// Active reports whether a sink is attached — true exactly when probes
// are being recorded. Call sites that must build expensive arguments
// may guard on it; plain emits need not.
func (h *Hub) Active() bool { return h != nil }

func (h *Hub) now() int64 {
	if h.clock == nil {
		return 0
	}
	return h.clock()
}

// Emit publishes an instant event with no annotations.
func (h *Hub) Emit(kind Kind, track, name string) {
	if h == nil {
		return
	}
	h.record(kind, track, name, 0, false, nil)
}

// EmitArgs publishes an instant event with annotations. The hub keeps
// their values; the caller's list is free to be reused.
func (h *Hub) EmitArgs(kind Kind, track, name string, args ...Field) {
	if h == nil {
		return
	}
	h.record(kind, track, name, 0, false, args)
}

// EmitSpan publishes a completed span of the given duration ending at
// at+dur having started "now" — callers report spans at their start
// with a known (modelled) duration.
func (h *Hub) EmitSpan(kind Kind, track, name string, dur int64, args ...Field) {
	if h == nil {
		return
	}
	h.record(kind, track, name, max(dur, 0), false, args)
}

// EmitCounter publishes a sampled value, rendered as a counter track.
func (h *Hub) EmitCounter(kind Kind, track, name string, val int64) {
	if h == nil {
		return
	}
	value := [1]Field{{Key: "value", Val: val}}
	h.record(kind, track, name, 0, true, value[:])
}

// Events returns the recorded probe stream in emission order (which,
// events being fired by the deterministic simulator, is itself
// deterministic). The caller must not mutate the slice. A later call
// returns a stream that begins with the same events.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	if need := len(h.flat) + h.pending; need > cap(h.flat) {
		// Headroom for the probes that follow a first call (a run's
		// verdict instants), so they do not copy the stream again.
		grown := make([]Event, len(h.flat), need+32)
		copy(grown, h.flat)
		h.flat = grown
	}
	for e, ok := h.syms.next(&h.read); ok; e, ok = h.syms.next(&h.read) {
		h.flat = append(h.flat, e)
	}
	h.pending = 0
	return h.flat
}
