package orchestrator

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
)

// samples is a witness's multiset of histogram samples.
type samples []int64

func (s *samples) add(v int64) { *s = append(*s, v) }

func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// summary is what a histogram keeps exactly: count, sum, min and max.
func (s samples) summary() [4]int64 {
	if len(s) == 0 {
		return [4]int64{}
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return [4]int64{int64(len(s)), sum, slices.Min(s), slices.Max(s)}
}

// quantileBounds returns the range a histogram's q-quantile must lie in:
// from the exact order statistic v at the rank Quantile documents (the
// ⌊q·(n−1)⌋+1-th smallest) up to the last value of v's bucket, capped at
// the largest sample. The bucket geometry is spelled here, not read
// from telemetry: a value below 16 has a bucket of its own; above, a
// bucket holds 2^(bits.Len64(v)−5) values and starts at a multiple of
// that width.
func (s samples) quantileBounds(q float64) (lo, hi int64) {
	sorted := s.sorted()
	v := sorted[int(q*float64(len(s)-1))]
	width := int64(1)
	if v >= 16 {
		width = 1 << (bits.Len64(uint64(v)) - 5)
	}
	return v, min(v|(width-1), sorted[len(s)-1])
}

// TestHistogramsMatchTheirWitnesses holds every histogram in metrics.json
// to a witness the sampling code does not write: the retransmission
// spans' durations, the CNP send instants, the timer probes, the
// traffic probes and the report's MCTs, the dumper totals and the trace.
// Each histogram must be non-zero in some cell, and present exactly when
// its witness holds a sample.
func TestHistogramsMatchTheirWitnesses(t *testing.T) {
	opts := Options{Telemetry: true, Lineage: true, INT: true, Coverage: true}
	lit := map[string]bool{}
	for _, c := range counterCells(t) {
		t.Run(c.name, func(t *testing.T) {
			tb, err := Build(c.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tb.Execute()
			if err != nil {
				t.Fatal(err)
			}
			hists := map[string]telemetry.HistSnap{}
			for _, h := range rep.Metrics.Histograms {
				hists[h.Name] = h
			}
			want := map[string]*samples{}
			w := func(name string) *samples {
				if want[name] == nil {
					want[name] = &samples{}
				}
				return want[name]
			}
			var failed int
			lastCNP := map[string]int64{}
			lastArm := map[string]int64{}
			posted := map[string]int64{}
			for i := range rep.Events {
				ev := &rep.Events[i]
				switch ev.Kind() {
				case telemetry.KindRetransGBN:
					switch ev.Name() {
					case "nack_gen":
						w("retrans.nack_gen_ns").add(ev.Dur)
					case "nack_react":
						w("retrans.nack_react_ns").add(ev.Dur)
					case "implied_nak":
						w("retrans.read_gen_ns").add(ev.Dur)
					}
				case telemetry.KindCNPGen:
					if ev.Name() != "send" {
						break
					}
					if at, ok := lastCNP[ev.Track()]; ok {
						w("cnp.gap_ns").add(ev.At - at)
					}
					lastCNP[ev.Track()] = ev.At
				case telemetry.KindRetransTimer:
					switch ev.Name() {
					case "arm":
						f, _ := ev.Lookup("rto_ns")
						lastArm[ev.Track()] = f.Val
					case "fire":
						arm, ok := lastArm[ev.Track()]
						if !ok {
							t.Fatalf("%s fired at %d with no arm before it", ev.Track(), ev.At)
						}
						w("retrans.rto_ns").add(arm)
					}
				case telemetry.KindTrafficMsg:
					id, _ := ev.Lookup("wr_id")
					key := fmt.Sprintf("%s/%d", ev.Track(), id.Val)
					switch ev.Name() {
					case "post":
						posted[key] = ev.At
					case "complete":
						if st, _ := ev.Lookup("status"); st.Str != rnic.StatusOK.String() {
							failed++
							break
						}
						w("traffic.msg post→complete").add(ev.At - posted[key])
					}
				}
			}
			for i := range rep.Traffic.Conns {
				for _, m := range rep.Traffic.Conns[i].MCTs {
					w("traffic.mct_ns").add(int64(m))
				}
			}
			if failed > 0 {
				lit["failed completions"] = true
			}

			// Count-only witnesses: one sojourn per admitted mirror copy;
			// one transmit gap per packet but the first of each sending
			// direction.
			var admitted int64
			for _, ds := range rep.DumperStats {
				admitted += int64(ds.Rx - ds.Discards)
			}
			dirs := map[trace.ConnKey]bool{}
			for i := range rep.Trace.Entries {
				dirs[rep.Trace.Entries[i].Key()] = true
			}
			tx := int64(rep.RequesterCounters[rnic.CtrTxRoCEPackets] + rep.ResponderCounters[rnic.CtrTxRoCEPackets])
			counts := map[string]int64{"dumper.sojourn_ns": admitted}
			if len(tb.Flows) == 1 {
				counts["nic.tx_gap_ns"] = tx - int64(len(dirs))
			}

			check := func(name string, got telemetry.HistSnap, present bool, s samples) {
				t.Helper()
				if present != (len(s) != 0) {
					t.Errorf("%s present = %v with %d witness samples: want it present exactly when sampled", name, present, len(s))
				}
				if g := [4]int64{got.Count, got.Sum, got.Min, got.Max}; g != s.summary() {
					t.Errorf("%s count/sum/min/max = %v, witness %v", name, g, s.summary())
				}
				if len(s) == 0 {
					return
				}
				lit[name] = true
				for _, p := range []struct {
					q   float64
					got int64
				}{{0.50, got.P50}, {0.99, got.P99}} {
					if lo, hi := s.quantileBounds(p.q); p.got < lo || p.got > hi {
						t.Errorf("%s p%v = %d, want within [%d, %d]", name, p.q*100, p.got, lo, hi)
					}
				}
			}
			for name, s := range want {
				if name == "traffic.msg post→complete" {
					continue
				}
				h, ok := hists[name]
				check(name, h, ok, *s)
			}
			for _, name := range []string{"retrans.nack_gen_ns", "retrans.nack_react_ns", "retrans.read_gen_ns", "cnp.gap_ns", "retrans.rto_ns"} {
				if want[name] == nil {
					h, ok := hists[name]
					check(name, h, ok, nil)
				}
			}
			// The MCTs are the traffic probes' post-to-complete spans of
			// every OK message, and nothing else.
			if m, p := want["traffic.mct_ns"], want["traffic.msg post→complete"]; (m == nil) != (p == nil) ||
				m != nil && !slices.Equal(m.sorted(), p.sorted()) {
				t.Errorf("traffic.mct_ns witness %v, OK post→complete probes %v", m, p)
			}
			for name, n := range counts {
				h, ok := hists[name]
				if ok != (n != 0) || h.Count != n {
					t.Errorf("%s count = %d (present %v), witness %d", name, h.Count, ok, n)
				}
				if n != 0 {
					lit[name] = true
				}
			}
			for name := range hists {
				if want[name] == nil && counts[name] == 0 && name != "nic.tx_gap_ns" {
					t.Errorf("%s has no witness", name)
				}
			}
		})
	}
	for _, name := range []string{"retrans.nack_gen_ns", "retrans.nack_react_ns", "retrans.read_gen_ns", "cnp.gap_ns",
		"retrans.rto_ns", "traffic.mct_ns", "dumper.sojourn_ns", "nic.tx_gap_ns", "failed completions"} {
		if !lit[name] {
			t.Errorf("%s is zero in every cell", name)
		}
	}
}
