// Package coverage implements Lumina's deterministic behavioral
// coverage map: a fixed universe of (site, transition) pairs spanning
// the RNIC transport FSM (Go-back-N rewinds, NAK/RNR/implied-NAK
// edges, retry exhaustion), the DCQCN RP/NP edges, the ETS arbiter
// branches, and the injector's match-action pipeline. Components
// record which behavioral transitions a run actually exercised; the
// fuzzer uses the resulting frontier as its guidance signal
// (P4Testgen's path-coverage oracle made exact by deterministic
// replay).
//
// The recorder follows the telemetry-hub contract: a nil *Map is a
// no-op, Record is a single slice increment (zero allocations,
// perfgate-budgeted), and recording is strictly observe-only — no
// events scheduled, no RNG reads, no packet mutation — so a run
// produces byte-identical packet history, verdicts, and summary.json
// with coverage on or off, and byte-identical coverage.json at any
// engine worker count.
//
// The site/transition universe is a compile-time registry: reports
// list every site with its transition total and only the covered
// transitions with counts, in definition order, making the JSON form
// canonical. Site and transition names are stable identifiers —
// renaming one is a schema change.
package coverage

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Schema identifies the coverage.json document format.
const Schema = "lumina-coverage/1"

// Site identifies one instrumented decision point. Values index the
// registry below and are stable within a schema version.
type Site uint8

const (
	// SiteQPState: queue-pair FSM states (qp.go).
	SiteQPState Site = iota
	// SiteRewind: Go-back-N rewind causes, recorded at the causal call
	// site, not inside rewind itself (qp.go).
	SiteRewind
	// SiteAck: ACK/NAK/RNR handling on the requester (qp.go).
	SiteAck
	// SiteReadResp: RDMA read-response sequencing, including the
	// implied-NAK gap detector (qp.go).
	SiteReadResp
	// SiteRecv: responder-side request sequencing (qp.go).
	SiteRecv
	// SiteReadReq: responder-side read-request replay window (qp.go).
	SiteReadReq
	// SiteAtomic: responder-side atomic replay cache (qp.go).
	SiteAtomic
	// SiteTimer: retransmission timer arm/fire/exhaust (qp.go).
	SiteTimer
	// SiteDCQCNRP: reaction-point edges — CNP cut, alpha update, the
	// three rate-increase stages, release (dcqcn.go).
	SiteDCQCNRP
	// SiteDCQCNNP: notification-point CNP generation (nic.go).
	SiteDCQCNNP
	// SiteETSGrant: arbiter grants by queue discipline (ets.go).
	SiteETSGrant
	// SiteETSBlock: arbiter blocking reasons (ets.go).
	SiteETSBlock
	// SiteInjectLookup: match-action rule lookup (injector.go).
	SiteInjectLookup
	// SiteInjectAction: match-action event application and the
	// hold/overtake/release machinery (injector.go).
	SiteInjectAction
	// SiteInjectMirror: mirror fan-out decisions (injector.go).
	SiteInjectMirror
	// SiteInjectIter: per-connection iteration tracking (injector.go).
	SiteInjectIter
	// SiteUC: the Unreliable Connected receiver FSM — NAK-less sequenced
	// delivery with drop-on-gap and First/Only resync (transport_uc.go).
	SiteUC
	// SiteUD: the Unreliable Datagram delivery path (transport_ud.go).
	SiteUD

	numSites
)

// Transition constants, one block per site; each indexes into its
// site's transition list in the registry.
const (
	QPStateReset uint8 = iota
	QPStateRTS
	QPStateError
)

const (
	RewindNak uint8 = iota
	RewindRNR
	RewindTimeout
	RewindImpliedNak
)

const (
	AckOK uint8 = iota
	AckNakSeq
	AckNakFatal
	AckRNR
	AckRNRExhausted
)

const (
	ReadRespInOrder uint8 = iota
	ReadRespImpliedNak
	ReadRespDuplicate
)

const (
	RecvInOrder uint8 = iota
	RecvRNRReject
	RecvMRFail
	RecvGapNak
	RecvDuplicate
)

const (
	ReadReqNew uint8 = iota
	ReadReqReread
	ReadReqForgotten
	ReadReqGap
)

const (
	AtomicExecute uint8 = iota
	AtomicReplay
	AtomicAgedOut
	AtomicGap
)

const (
	TimerArm uint8 = iota
	TimerRetry
	TimerExhausted
)

const (
	RPCnpCut uint8 = iota
	RPAlphaDecay
	RPTimerRound
	RPByteRound
	RPFastRecovery
	RPAdditive
	RPHyper
	RPRelease
)

const (
	NPSend uint8 = iota
	NPSuppress
	NPDisabled
)

const (
	ETSGrantStrict uint8 = iota
	ETSGrantWeighted
)

const (
	ETSBlockPortBusy uint8 = iota
	ETSBlockPacing
	ETSBlockCap
	ETSBlockIdle
)

const (
	LookupHit uint8 = iota
	LookupMiss
)

const (
	ActionECN uint8 = iota
	ActionCorrupt
	ActionMigReq
	ActionDrop
	ActionDelay
	ActionReorderHold
	ActionOvertake
	ActionRelease
)

const (
	MirrorSpray uint8 = iota
	MirrorByIngress
	MirrorRSSRewrite
)

const (
	IterTracked uint8 = iota
	IterAdopt
	IterNewRound
)

const (
	UCInOrder uint8 = iota
	UCResync
	UCDropGap
	UCDuplicate
	UCDropMR
	UCNoRecv
)

const (
	UDDeliver uint8 = iota
	UDNoRecv
)

// siteDef is one registry row: the site's stable name and its
// transition names in constant order.
type siteDef struct {
	name        string
	transitions []string
}

var defs = [numSites]siteDef{
	SiteQPState:      {"qp.state", []string{"reset", "rts", "error"}},
	SiteRewind:       {"qp.rewind", []string{"nak", "rnr", "timeout", "implied-nak"}},
	SiteAck:          {"qp.ack", []string{"ack", "nak-seq", "nak-fatal", "rnr", "rnr-exhausted"}},
	SiteReadResp:     {"qp.read-resp", []string{"in-order", "implied-nak", "duplicate"}},
	SiteRecv:         {"qp.recv", []string{"in-order", "rnr-reject", "mr-fail", "gap-nak", "duplicate"}},
	SiteReadReq:      {"qp.read-req", []string{"new", "reread", "forgotten", "gap"}},
	SiteAtomic:       {"qp.atomic", []string{"execute", "replay", "aged-out", "gap"}},
	SiteTimer:        {"qp.timer", []string{"arm", "retry", "exhausted"}},
	SiteDCQCNRP:      {"dcqcn.rp", []string{"cnp-cut", "alpha-decay", "timer-round", "byte-round", "fast-recovery", "additive", "hyper", "release"}},
	SiteDCQCNNP:      {"dcqcn.np", []string{"send", "suppress", "disabled"}},
	SiteETSGrant:     {"ets.grant", []string{"strict", "weighted"}},
	SiteETSBlock:     {"ets.block", []string{"port-busy", "pacing", "cap", "idle"}},
	SiteInjectLookup: {"inject.lookup", []string{"hit", "miss"}},
	SiteInjectAction: {"inject.action", []string{"ecn", "corrupt", "mig-req", "drop", "delay", "reorder-hold", "overtake", "release"}},
	SiteInjectMirror: {"inject.mirror", []string{"spray", "by-ingress", "rss-rewrite"}},
	SiteInjectIter:   {"inject.iter", []string{"tracked", "adopt", "new-round"}},
	SiteUC:           {"uc.recv", []string{"in-order", "resync", "drop-gap", "duplicate", "mr-drop", "no-recv"}},
	SiteUD:           {"ud.datagram", []string{"deliver", "no-recv"}},
}

// offsets[s] is the first global pair index of site s;
// offsets[numSites] is the universe size.
var offsets [numSites + 1]int

// pairKeys[i] is the canonical "site/transition" key for global pair
// index i; keyIndex is its inverse.
var (
	pairKeys   []string
	keyIndex   map[string]int
	siteByName map[string]Site
)

func init() {
	n := 0
	for s := Site(0); s < numSites; s++ {
		offsets[s] = n
		n += len(defs[s].transitions)
	}
	offsets[numSites] = n
	pairKeys = make([]string, 0, n)
	keyIndex = make(map[string]int, n)
	siteByName = make(map[string]Site, numSites)
	for s := Site(0); s < numSites; s++ {
		siteByName[defs[s].name] = s
		for _, t := range defs[s].transitions {
			keyIndex[defs[s].name+"/"+t] = len(pairKeys)
			pairKeys = append(pairKeys, defs[s].name+"/"+t)
		}
	}
}

// Total is the size of the (site, transition) universe.
func Total() int { return offsets[numSites] }

// Map is the run-scoped recorder. A nil Map is a valid no-op, so
// components call Record unconditionally through their simulator
// reference regardless of whether coverage was requested.
type Map struct {
	counts []uint64
}

// NewMap returns an empty recorder covering the full universe.
func NewMap() *Map { return &Map{counts: make([]uint64, offsets[numSites])} }

// Record counts one traversal of (s, t). The hot path: a bounds check
// and a slice increment, zero allocations. Invalid transitions panic —
// they are programming errors, not data.
func (m *Map) Record(s Site, t uint8) {
	if m == nil {
		return
	}
	idx := offsets[s] + int(t)
	if idx >= offsets[s+1] {
		// invariant: every Record call site passes a Site constant and one of that site's transition constants declared beside defs; no transition is computed from data.
		panic(fmt.Sprintf("coverage: site %s has no transition %d", defs[s].name, t))
	}
	m.counts[idx]++
}

// Report snapshots the map into its canonical document form.
func (m *Map) Report() *Report {
	if m == nil {
		return nil
	}
	return reportFromCounts(m.counts)
}

// TransitionReport is one covered transition with its traversal count.
type TransitionReport struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// SiteReport lists a site's transition total and the covered subset in
// definition order. Every site appears, covered or not, so diffs see a
// stable site table.
type SiteReport struct {
	Name        string             `json:"name"`
	Transitions int                `json:"transitions"`
	Covered     []TransitionReport `json:"covered,omitempty"`
}

// Report is the coverage.json document: the covered/total frontier
// headline plus the per-site breakdown, all in registry order — the
// canonical (byte-stable) serialization of a coverage state.
type Report struct {
	Schema  string       `json:"schema"`
	Covered int          `json:"covered"`
	Total   int          `json:"total"`
	Sites   []SiteReport `json:"sites"`
}

// Publish writes the number of covered pairs into reg.
func (r *Report) Publish(reg *telemetry.Registry) {
	reg.Add("coverage.pairs", int64(r.Covered))
}

func reportFromCounts(counts []uint64) *Report {
	r := &Report{Schema: Schema, Total: offsets[numSites]}
	r.Sites = make([]SiteReport, numSites)
	for s := Site(0); s < numSites; s++ {
		sr := SiteReport{Name: defs[s].name, Transitions: len(defs[s].transitions)}
		for t, name := range defs[s].transitions {
			if c := counts[offsets[s]+t]; c > 0 {
				sr.Covered = append(sr.Covered, TransitionReport{Name: name, Count: c})
				r.Covered++
			}
		}
		r.Sites[s] = sr
	}
	return r
}

// counts rebuilds the flat count vector from a report, skipping pairs
// outside this binary's universe (a report written by a newer schema).
func (r *Report) countVector() []uint64 {
	counts := make([]uint64, offsets[numSites])
	for _, sr := range r.Sites {
		s, ok := siteByName[sr.Name]
		if !ok {
			continue
		}
		for _, tr := range sr.Covered {
			if idx, ok := keyIndex[defs[s].name+"/"+tr.Name]; ok {
				counts[idx] += tr.Count
			}
		}
	}
	return counts
}

// Write emits the document as indented JSON with a trailing newline —
// the byte format WriteArtifacts pins across worker counts.
func (r *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadReport parses a coverage.json document, accepting any
// lumina-coverage/* schema.
func ReadReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("coverage: parse report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("coverage: unsupported schema %q (want %s)", r.Schema, Schema)
	}
	return &r, nil
}

// MergeReports folds src's counts into a copy of dst (either may be
// nil) and returns the merged report — the corpus frontier operation.
// Pairs outside this binary's universe are dropped.
func MergeReports(dst, src *Report) *Report {
	counts := make([]uint64, offsets[numSites])
	for _, r := range []*Report{dst, src} {
		if r == nil {
			continue
		}
		for i, c := range r.countVector() {
			counts[i] += c
		}
	}
	return reportFromCounts(counts)
}

// Diff is the pairwise comparison `lumina trace coverage` renders: which pairs
// each side covered that the other did not.
type Diff struct {
	CoveredA int
	CoveredB int
	// OnlyA and OnlyB list pair keys covered by exactly one side, in
	// canonical order.
	OnlyA []string
	OnlyB []string
}

// DiffReports compares two coverage states (either may be nil — an
// empty frontier).
func DiffReports(a, b *Report) Diff {
	sa, sb := NewSet(), NewSet()
	if a != nil {
		sa.AddReport(a)
	}
	if b != nil {
		sb.AddReport(b)
	}
	d := Diff{CoveredA: sa.Size(), CoveredB: sb.Size()}
	for i := range pairKeys {
		inA, inB := sa.has(i), sb.has(i)
		if inA && !inB {
			d.OnlyA = append(d.OnlyA, pairKeys[i])
		}
		if inB && !inA {
			d.OnlyB = append(d.OnlyB, pairKeys[i])
		}
	}
	return d
}

// Set is a frontier: the set of pairs seen so far. The fuzzer keeps
// one per NIC profile and admits mutants that grow it.
type Set struct {
	bits []uint64
	n    int
}

// NewSet returns an empty frontier over the pair universe.
func NewSet() *Set {
	return &Set{bits: make([]uint64, (offsets[numSites]+63)/64)}
}

func (s *Set) has(i int) bool { return s.bits[i/64]&(1<<uint(i%64)) != 0 }

func (s *Set) add(i int) bool {
	w, m := i/64, uint64(1)<<uint(i%64)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	s.n++
	return true
}

// AddReport folds a report's covered pairs into the frontier and
// returns the keys that were new, in canonical order.
func (s *Set) AddReport(r *Report) []string {
	var fresh []int
	for _, sr := range r.Sites {
		site, ok := siteByName[sr.Name]
		if !ok {
			continue
		}
		for _, tr := range sr.Covered {
			if idx, ok := keyIndex[defs[site].name+"/"+tr.Name]; ok && s.add(idx) {
				fresh = append(fresh, idx)
			}
		}
	}
	sort.Ints(fresh)
	out := make([]string, 0, len(fresh))
	for _, i := range fresh {
		out = append(out, pairKeys[i])
	}
	return out
}

// Size returns the number of pairs in the frontier.
func (s *Set) Size() int {
	if s == nil {
		return 0
	}
	return s.n
}
