package analyzer_test

import (
	"context"
	"net/netip"
	"path/filepath"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/trace"
)

// The counter-consistency checker is held to a reference: checkHost
// below is the analyzer's per-host check as it stood before the check
// became a verdict, kept verbatim (one MTU estimate and one set of
// pointer-held connection states per host).

// refCheckCounters is the reference over several sides.
func refCheckCounters(tr *trace.Trace, hosts ...analyzer.HostView) []analyzer.Inconsistency {
	var out []analyzer.Inconsistency
	for _, h := range hosts {
		out = append(out, checkHost(tr, h)...)
	}
	return out
}

// checkAgainstReference fails t unless the checker and the reference
// agree on hosts over tr.
func checkAgainstReference(t *testing.T, name string, tr *trace.Trace, hosts []analyzer.HostView) {
	t.Helper()
	got := analyzer.Analyze(tr, analyzer.VerdictOptions{Hosts: hosts}).Counters
	if want := refCheckCounters(tr, hosts...); !slices.Equal(got, want) {
		t.Errorf("%s: checker %v, reference %v", name, got, want)
	}
}

// traceSides splits a trace's addresses into two sides with no
// counters: the first entry's source, and every other address.
func traceSides(tr *trace.Trace) []analyzer.HostView {
	a, b := analyzer.HostView{Name: "a"}, analyzer.HostView{Name: "b"}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		for _, addr := range []netip.Addr{e.Src(), e.Dst()} {
			switch {
			case a.IPs == nil:
				a.IPs = []netip.Addr{addr}
			case addr != a.IPs[0] && !slices.Contains(b.IPs, addr):
				b.IPs = append(b.IPs, addr)
			}
		}
	}
	return []analyzer.HostView{a, b}
}

// TestCounterCheckMatchesReference runs every corpus cell under every
// profile, every checked-in scenario and every benchmark workload, and
// diffs the checker against the reference on the run's judged sides and
// on two sides split from the trace's addresses (which judges fabric
// traces too).
func TestCounterCheckMatchesReference(t *testing.T) {
	var cfgs []config.Test
	entries, err := corpus.List(filepath.Join("..", "..", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, p := range corpus.AllProfiles() {
			cfg := e.Config
			cfg.Requester.NIC.Type, cfg.Responder.NIC.Type = p, p
			cfgs = append(cfgs, cfg)
		}
	}
	var files []string
	for _, glob := range []string{"configs/*.yaml", "bench/workloads/*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", glob))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	for _, f := range files {
		cfg, err := config.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(entries) == 0 || len(files) < 8 {
		t.Fatalf("%d corpus entries and %d scenario files", len(entries), len(files))
	}
	reps, err := engine.RunConfigs(context.Background(), cfgs, orchestrator.Options{Lineage: true}, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		name := cfgs[i].Name + "/" + cfgs[i].Requester.NIC.Type
		if want := refCheckCounters(rep.Trace, rep.Analysis.Hosts...); !slices.Equal(rep.Analysis.Counters, want) {
			t.Errorf("%s: run found %v, reference %v", name, rep.Analysis.Counters, want)
		}
		checkAgainstReference(t, name+" (trace sides)", rep.Trace, traceSides(rep.Trace))
	}
}

// TestCounterCheckCases pins the checker on literal traces, one
// behaviour each, between side a (10.0.0.1, the reader) and side b
// (10.0.0.2).
func TestCounterCheckCases(t *testing.T) {
	// A middle read response's payload at the builder's 1024-byte frames
	// is the MTU the checker estimates.
	const mtu = 1024 - packet.EthernetSize - packet.IPv4Size - packet.UDPSize - packet.BTHSize - packet.ICRCSize
	req := func(psn, pkts uint32) packet.Packet {
		return packet.Packet{
			IP:   packet.IPv4{Src: tIPA, Dst: tIPB, Protocol: packet.ProtoUDP},
			BTH:  packet.BTH{Opcode: packet.OpReadRequest, DestQP: 0x22, PSN: psn},
			RETH: packet.RETH{DMALen: pkts * mtu},
		}
	}
	resp := func(psn uint32) packet.Packet {
		return packet.Packet{
			IP:  packet.IPv4{Src: tIPB, Dst: tIPA, Protocol: packet.ProtoUDP},
			BTH: packet.BTH{Opcode: packet.OpReadResponseMiddle, DestQP: 0x11, PSN: psn},
		}
	}
	cnp := func(src, dst netip.Addr) packet.Packet {
		return packet.Packet{
			IP:  packet.IPv4{Src: src, Dst: dst, Protocol: packet.ProtoUDP},
			BTH: packet.BTH{Opcode: packet.OpCNP, DestQP: 0x33},
		}
	}
	type step struct {
		p  packet.Packet
		ev packet.EventType
	}
	ok := func(p packet.Packet) step { return step{p, packet.EventNone} }
	dropped := func(p packet.Packet) step { return step{p, packet.EventDrop} }
	counters := func(tx, cnps, seqErr, implied uint64) map[string]uint64 {
		return map[string]uint64{
			rnic.CtrTxRoCEPackets: tx, rnic.CtrNpCnpSent: cnps,
			rnic.CtrPacketSeqErr: seqErr, rnic.CtrImpliedNakSeq: implied,
		}
	}
	for _, c := range []struct {
		name  string
		steps []step
		a, b  map[string]uint64
		want  []string
	}{{
		// The last response is lost and a re-reads it after a timeout:
		// no response arrived out of order, so it proves no implied NAK.
		name: "tail-loss re-read",
		steps: []step{ok(req(0, 4)), ok(resp(0)), ok(resp(1)), ok(resp(2)), dropped(resp(3)),
			ok(req(3, 1)), ok(resp(3))},
		a: counters(2, 0, 0, 0), b: counters(5, 0, 0, 0),
	}, {
		// Response 2 arrives past the lost 1: the re-read from 1 proves
		// an implied NAK the NIC did not count. It spends that evidence,
		// so the tail-loss re-read of 3 that follows proves nothing.
		name: "OOO-evidenced re-read",
		steps: []step{ok(req(0, 4)), ok(resp(0)), dropped(resp(1)), ok(resp(2)), ok(resp(3)),
			ok(req(1, 3)), ok(resp(1)), ok(resp(2)), dropped(resp(3)),
			ok(req(3, 1)), ok(resp(3))},
		a: counters(3, 0, 0, 0), b: counters(8, 0, 0, 0),
		want: []string{"a implied_nak_seq_err: NIC 0, trace 1"},
	}, {
		// After the counted re-read from 1, the first pass's response 3
		// is still in flight and is dropped: it never reached a, so it
		// is no evidence for the later tail-loss re-read of 3.
		name: "dropped responses carry no evidence",
		steps: []step{ok(req(0, 4)), ok(resp(0)), dropped(resp(1)), ok(resp(2)),
			ok(req(1, 3)), dropped(resp(3)), ok(resp(1)), ok(resp(2)), dropped(resp(3)),
			ok(req(3, 1)), ok(resp(3))},
		a: counters(3, 0, 0, 1), b: counters(8, 0, 0, 0),
	}, {
		// Each side answers for its own CNPs and sequence-error NAKs: b
		// sent two CNPs and a NAK but counted one CNP and no NAK.
		name: "CNPs and seq-err NAKs per side",
		steps: []step{ok(writePkt(0, packet.OpWriteFirst)), ok(cnp(tIPB, tIPA)), ok(cnp(tIPA, tIPB)),
			dropped(writePkt(1, packet.OpWriteMiddle)), ok(writePkt(2, packet.OpWriteLast)),
			ok(nakPkt(1)), ok(cnp(tIPB, tIPA)), ok(writePkt(1, packet.OpWriteMiddle))},
		a: counters(5, 1, 0, 0), b: counters(3, 1, 0, 0),
		want: []string{"b np_cnp_sent: NIC 1, trace 2", "b packet_seq_err: NIC 0, trace 1"},
	}} {
		b := &traceBuilder{}
		for _, s := range c.steps {
			b.add(s.p, s.ev)
		}
		tr := b.build()
		sides := []analyzer.HostView{
			{Name: "a", IPs: []netip.Addr{tIPA}, Counters: c.a},
			{Name: "b", IPs: []netip.Addr{tIPB}, Counters: c.b},
		}
		var got []string
		for _, inc := range analyzer.Analyze(tr, analyzer.VerdictOptions{Hosts: sides}).Counters {
			got = append(got, inc.String())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
		checkAgainstReference(t, c.name, tr, sides)
	}
}

// FuzzCounterOracle feeds capture bytes through pcap decoding and trace
// reconstruction, splits the trace's addresses into two sides, and
// diffs the checker against the reference on them.
func FuzzCounterOracle(f *testing.F) {
	listing2, err := config.Load("../../configs/listing2.yaml")
	if err != nil {
		f.Fatal(err)
	}
	// A lost read response: re-reads with out-of-order evidence.
	read := config.Default()
	read.Traffic.Verb = "read"
	read.Traffic.NumMsgsPerQP = 1
	read.Traffic.MessageSize = 102400
	read.Traffic.Events = []config.Event{{QPN: 1, PSN: 40, Type: "drop", Iter: 1}}
	addCaptureSeeds(f, listing2, read)
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, ok := pcapTrace(data); ok {
			checkAgainstReference(t, "capture", tr, traceSides(tr))
		}
	})
}

// --- the reference ---

func checkHost(tr *trace.Trace, h analyzer.HostView) []analyzer.Inconsistency {
	var out []analyzer.Inconsistency

	// First pass: estimate the path MTU from read-response payloads so
	// read-request PSN reservations (one PSN per response packet) can be
	// reconstructed from DMALen.
	mtu := estimateMTU(tr)

	// Packets transmitted by this host = trace entries whose source IP
	// belongs to it. (The injector mirrors at ingress, so every
	// transmitted packet appears exactly once, including ones later
	// dropped by injection.)
	var txSeen uint64
	var cnpsSeen uint64
	var naksSent uint64
	var impliedNaks uint64
	// nextReq tracks each connection's next expected fresh read-request
	// PSN; a request landing below it re-reads already-reserved space.
	nextReq := map[trace.ConnKey]*uint32{}
	// respOOO tracks whether out-of-order read responses were delivered
	// toward this host since the last re-read — the evidence that a
	// subsequent re-read proves an implied-NAK detection rather than a
	// plain timeout recovery (a tail loss yields a re-read with no OOO
	// response preceding it, and must not count).
	// Streams are also listed in first-seen order: a re-read is matched
	// against them in that order, never in the map's.
	respOOO := map[trace.ConnKey]*respStateT{}
	var respOrder []*respStateT

	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Opcode()

		// Read responses delivered toward this host feed the OOO
		// evidence tracker. Injector-dropped copies never reached the
		// host, so they carry no evidence.
		if op.IsReadResponse() && slices.Contains(h.IPs, e.Dst()) && e.Meta().Event != packet.EventDrop {
			k := e.Key()
			st := respOOO[k]
			if st == nil {
				st = &respStateT{src: e.Src(), dst: e.Dst()}
				respOOO[k] = st
				respOrder = append(respOrder, st)
			}
			psn := e.PSN()
			switch {
			case !st.init:
				st.init = true
				st.expected = trace.PSNAdd(psn, 1)
			case psn == st.expected:
				st.expected = trace.PSNAdd(psn, 1)
			case trace.PSNLess(st.expected, psn):
				st.ooo = true
			}
		}

		if !slices.Contains(h.IPs, e.Src()) {
			continue
		}
		txSeen++
		switch {
		case op.IsCNP():
			cnpsSeen++
		case op.IsAck() && e.AETH().IsNak() && e.AETH().Syndrome == packet.NakPSNSeqError:
			naksSent++
		case op.IsReadRequest():
			k := e.Key()
			psn := e.PSN()
			exp, ok := nextReq[k]
			if !ok {
				v := psn
				nextReq[k] = &v
				exp = &v
			}
			if trace.PSNLess(psn, *exp) {
				// Re-read into reserved space. It proves an implied NAK
				// only when OOO responses were actually observed.
				if st := findRespState(respOrder, e, psn); st != nil && st.ooo {
					impliedNaks++
					st.ooo = false
					st.expected = psn // the requester rewound
				}
				continue // re-reads do not extend the reservation
			}
			npkts := uint32(1)
			if mtu > 0 && e.DMALen() > 0 {
				npkts = (e.DMALen() + uint32(mtu) - 1) / uint32(mtu)
			}
			*exp = trace.PSNAdd(psn, npkts)
		}
	}

	if c := h.Counters[rnic.CtrTxRoCEPackets]; c != txSeen {
		out = append(out, analyzer.Inconsistency{
			Host: h.Name, Counter: rnic.CtrTxRoCEPackets, Counted: c, Observed: txSeen,
		})
	}
	if c := h.Counters[rnic.CtrNpCnpSent]; c != cnpsSeen {
		out = append(out, analyzer.Inconsistency{
			Host: h.Name, Counter: rnic.CtrNpCnpSent, Counted: c, Observed: cnpsSeen,
		})
	}
	if c := h.Counters[rnic.CtrPacketSeqErr]; c != naksSent {
		out = append(out, analyzer.Inconsistency{
			Host: h.Name, Counter: rnic.CtrPacketSeqErr, Counted: c, Observed: naksSent,
		})
	}
	// implied_nak_seq_err: every re-read preceded by out-of-order read
	// responses proves the requester detected the OOO arrival. A counter
	// below the trace-proven count is the CX4 Lx bug (§6.2.4); pure
	// timeout recoveries (tail losses) carry no OOO evidence and are not
	// counted.
	if c := h.Counters[rnic.CtrImpliedNakSeq]; impliedNaks > 0 && c < impliedNaks {
		out = append(out, analyzer.Inconsistency{
			Host: h.Name, Counter: rnic.CtrImpliedNakSeq, Counted: c, Observed: impliedNaks,
		})
	}
	return out
}

// respStateT tracks one read-response stream's expected PSN and whether
// out-of-order deliveries are pending as implied-NAK evidence.
type respStateT struct {
	src, dst netip.Addr // the responses' direction
	init     bool
	expected uint32
	ooo      bool
}

// findRespState links a re-read request to its response stream: among
// the streams (in first-seen order) of the reversed IP pair whose PSN
// space is near the re-read PSN, the one whose expected PSN is nearest,
// the first seen among equally near ones.
func findRespState(streams []*respStateT, e *trace.Entry, psn uint32) *respStateT {
	var best *respStateT
	var bestDist uint32
	for _, st := range streams {
		if st.src != e.Dst() || st.dst != e.Src() || !psnNear(st.expected, psn) {
			continue
		}
		if d := psnDist(st.expected, psn); best == nil || d < bestDist {
			best, bestDist = st, d
		}
	}
	return best
}

// estimateMTU infers the path MTU as the largest data payload observed
// (from untrimmed original lengths), so reservation arithmetic does not
// require out-of-band configuration.
func estimateMTU(tr *trace.Trace) int {
	mtu := 0
	for i := range tr.Entries {
		e := &tr.Entries[i]
		op := e.Opcode()
		if !op.IsData() || op.IsReadRequest() {
			continue
		}
		hdr := packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize + packet.ICRCSize
		if op.HasRETH() {
			hdr += packet.RETHSize
		}
		if op.HasAETH() {
			hdr += packet.AETHSize
		}
		if op.HasImm() {
			hdr += packet.ImmSize
		}
		if p := e.OrigLen() - hdr - int(e.PadCount()); p > mtu {
			mtu = p
		}
	}
	return mtu
}

// psnDist is the circular distance between two 24-bit PSNs.
func psnDist(a, b uint32) uint32 {
	d := (a - b) & packet.PSNMask
	if d > packet.PSNMask/2 {
		d = packet.PSNMask + 1 - d
	}
	return d
}

// psnNear reports whether two PSNs plausibly belong to one connection's
// sequence space (within a 2^20 window).
func psnNear(a, b uint32) bool {
	return psnDist(a, b) < 1<<20
}
