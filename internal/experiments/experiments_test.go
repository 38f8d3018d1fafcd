package experiments

import (
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// These tests assert the paper's qualitative shapes — who wins, by
// roughly what factor, where the crossovers fall — per DESIGN.md's
// reproduction contract. Absolute values are the simulator's, not the
// authors' testbed's.

// must unwraps an experiment's (value, error) pair, failing the test on
// error so the shape assertions can stay focused on the values. Curried
// so a multi-value call can feed it directly: must(Figure7(30))(t).
func must[T any](v T, err error) func(testing.TB) T {
	return func(tb testing.TB) T {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

func TestFigure7Shape(t *testing.T) {
	pts := must(Figure7(30))(t)
	byKey := map[string]sim.Duration{}
	for _, p := range pts {
		byKey[string(p.Variant)+"/"+itoa(p.MsgBytes)] = p.AvgMCT
	}
	for _, size := range []string{"1024", "10240", "102400"} {
		lum := byKey["Lumina/"+size]
		nm := byKey["Lumina-nm/"+size]
		ne := byKey["Lumina-ne/"+size]
		l2 := byKey["l2-forward/"+size]
		if lum == 0 || nm == 0 || ne == 0 || l2 == 0 {
			t.Fatalf("missing measurements for size %s", size)
		}
		// Mirroring has negligible impact: Lumina ≈ Lumina-nm.
		if ratio := float64(lum) / float64(nm); ratio < 0.99 || ratio > 1.01 {
			t.Errorf("size %s: Lumina/Lumina-nm = %.3f, want ≈ 1 (mirroring negligible)", size, ratio)
		}
		// Event injection adds a small overhead over Lumina-ne and L2.
		if lum <= ne {
			t.Errorf("size %s: Lumina (%v) not above Lumina-ne (%v)", size, lum, ne)
		}
		if over := float64(lum)/float64(l2) - 1; over <= 0 || over > 0.20 {
			t.Errorf("size %s: Lumina overhead over L2 = %.1f%%, want small positive", size, over*100)
		}
		// Baselines agree with each other.
		if ne != l2 {
			t.Errorf("size %s: Lumina-ne (%v) != l2-forward (%v)", size, ne, l2)
		}
	}
}

func TestFigures8And9Shape(t *testing.T) {
	pts := must(Figures8And9(rnic.HardwareModelNames(), []int{20, 80}))(t)
	type key struct{ model, verb string }
	gen := map[key][]sim.Duration{}
	react := map[key][]sim.Duration{}
	for _, p := range pts {
		k := key{p.Model, p.Verb}
		gen[k] = append(gen[k], p.Gen)
		react[k] = append(react[k], p.React)
	}
	us := func(f float64) sim.Duration { return sim.Duration(f * 1000) }
	maxOf := func(ds []sim.Duration) sim.Duration {
		var m sim.Duration
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		return m
	}
	// CX5/CX6: total retransmission delay in single-digit µs.
	for _, model := range []string{rnic.ModelCX5, rnic.ModelCX6} {
		for _, verb := range []string{"write", "read"} {
			k := key{model, verb}
			if g := maxOf(gen[k]); g > us(10) {
				t.Errorf("%s/%s NACK gen %v, want < 10µs", model, verb, g)
			}
			if r := maxOf(react[k]); r > us(15) {
				t.Errorf("%s/%s NACK react %v, want < 15µs", model, verb, r)
			}
		}
	}
	// CX4: reaction in the hundreds of µs for write.
	if r := maxOf(react[key{rnic.ModelCX4, "write"}]); r < us(100) || r > us(400) {
		t.Errorf("cx4 write react %v, want hundreds of µs", r)
	}
	// CX4 read gen ~150µs.
	if g := maxOf(gen[key{rnic.ModelCX4, "read"}]); g < us(100) || g > us(300) {
		t.Errorf("cx4 read gen %v, want ~150µs", g)
	}
	// E810: write gen ~10µs, read gen ~83ms — a ≥1000× asymmetry.
	wg := maxOf(gen[key{rnic.ModelE810, "write"}])
	rg := maxOf(gen[key{rnic.ModelE810, "read"}])
	if wg > us(20) {
		t.Errorf("e810 write gen %v, want ~10µs", wg)
	}
	if rg < 50*sim.Millisecond || rg > 120*sim.Millisecond {
		t.Errorf("e810 read gen %v, want ~83ms", rg)
	}
	if float64(rg)/float64(wg) < 1000 {
		t.Errorf("e810 read/write gen asymmetry %.0f×, want ≥ 1000×", float64(rg)/float64(wg))
	}
}

func TestFigure10Shape(t *testing.T) {
	get := func(pts []Figure10Point, s ETSSetting, qp int) float64 {
		for _, p := range pts {
			if p.Setting == s && p.QP == qp {
				return p.GoodputGbps
			}
		}
		t.Fatalf("missing point %v/%d", s, qp)
		return 0
	}
	cx6 := must(Figure10(rnic.ModelCX6))(t)
	spec := must(Figure10(rnic.ModelSpec))(t)

	// Experiment 1: both QPs ≈ half line rate on both NICs.
	for _, pts := range [][]Figure10Point{cx6, spec} {
		g0 := get(pts, ETSMultiQueueVanilla, 0)
		g1 := get(pts, ETSMultiQueueVanilla, 1)
		if g0 < 40 || g0 > 55 || g1 < 40 || g1 > 55 {
			t.Errorf("vanilla goodputs = %.1f/%.1f, want ≈ 50", g0, g1)
		}
	}
	// Experiment 2: QP0 throttled everywhere.
	if g0 := get(cx6, ETSMultiQueueECN, 0); g0 > 20 {
		t.Errorf("cx6 QP0 under ECN = %.1f, want strongly reduced", g0)
	}
	// The bug: CX6 QP1 stays at its guarantee; spec NIC exceeds it.
	cx6QP1 := get(cx6, ETSMultiQueueECN, 1)
	specQP1 := get(spec, ETSMultiQueueECN, 1)
	if cx6QP1 > 55 {
		t.Errorf("cx6 QP1 under multi-queue ECN = %.1f, bug should clamp it ≈ 50", cx6QP1)
	}
	if specQP1 < 65 {
		t.Errorf("spec QP1 under multi-queue ECN = %.1f, work conservation should exceed 65", specQP1)
	}
	if specQP1 < cx6QP1*1.3 {
		t.Errorf("spec QP1 (%.1f) not meaningfully above cx6 QP1 (%.1f)", specQP1, cx6QP1)
	}
	// Experiment 3: single queue restores work conservation on CX6 too.
	if g1 := get(cx6, ETSSingleQueueECN, 1); g1 < 65 {
		t.Errorf("cx6 single-queue QP1 = %.1f, want > 65", g1)
	}
}

func TestFigure11Shape(t *testing.T) {
	pts := must(Figure11(rnic.ModelCX4, []int{0, 8, 12}))(t)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	base := pts[0].InnocentMCT
	if base > sim.Millisecond {
		t.Fatalf("clean innocent MCT %v, want ~160µs", base)
	}
	// i=8: below the slow-path context pool — no interference.
	if pts[1].InnocentMCT > 2*base {
		t.Errorf("i=8 innocent MCT %v vs baseline %v: interference below threshold", pts[1].InnocentMCT, base)
	}
	if pts[1].RxDiscards != 0 {
		t.Errorf("i=8 discards = %d, want 0", pts[1].RxDiscards)
	}
	// i=12: the wedge. Innocent flows orders of magnitude slower, with
	// requester-side discards.
	if pts[2].InnocentMCT < 100*base {
		t.Errorf("i=12 innocent MCT %v vs baseline %v: want ≥ 100×", pts[2].InnocentMCT, base)
	}
	if pts[2].RxDiscards == 0 {
		t.Error("i=12: no rx discards")
	}
	if pts[2].InnocentMax < 100*sim.Millisecond {
		t.Errorf("i=12 worst innocent message %v, want hundreds of ms", pts[2].InnocentMax)
	}
	if !pts[2].InnocentSlow {
		t.Error("i=12 not classified as slow")
	}
}

func TestFigure11OtherNICsUnaffected(t *testing.T) {
	for _, model := range []string{rnic.ModelCX5, rnic.ModelE810} {
		pts := must(Figure11(model, []int{12}))(t)
		if pts[0].InnocentSlow {
			t.Errorf("%s: innocent flows slowed (MCT %v); noisy neighbor is CX4-specific", model, pts[0].InnocentMCT)
		}
	}
}

func TestInteropShape(t *testing.T) {
	pts := must(Interop([]int{4, 16}, false))(t)
	if pts[0].RxDiscards != 0 {
		t.Errorf("4 QPs: %d discards, want 0", pts[0].RxDiscards)
	}
	if pts[1].RxDiscards == 0 {
		t.Error("16 QPs: no discards")
	}
	if pts[1].SlowMsgs == 0 {
		t.Error("16 QPs: no slow messages despite discards")
	}
	// The victims' MCTs are orders of magnitude above the clean ones
	// (paper: 20460µs vs 156µs).
	if pts[1].SlowMsgs > 0 && pts[1].AvgSlowMCT < 50*pts[1].AvgCleanMCT {
		t.Errorf("slow/clean MCT ratio = %.0f, want ≥ 50×",
			float64(pts[1].AvgSlowMCT)/float64(pts[1].AvgCleanMCT))
	}
	// The MigReq rewrite eliminates everything.
	fixed := must(Interop([]int{16}, true))(t)
	if fixed[0].RxDiscards != 0 || fixed[0].SlowMsgs != 0 {
		t.Errorf("MigReq fix: %d discards / %d slow msgs, want 0/0",
			fixed[0].RxDiscards, fixed[0].SlowMsgs)
	}
}

func TestCNPIntervalShape(t *testing.T) {
	pts := must(CNPIntervals([]string{rnic.ModelCX5, rnic.ModelE810}))(t)
	byModel := map[string]CNPIntervalPoint{}
	for _, p := range pts {
		byModel[p.Model] = p
	}
	// CX5 honors the configured zero interval: CNP ≈ every marked packet.
	cx5 := byModel[rnic.ModelCX5]
	if cx5.CNPs < cx5.Marked/2 {
		t.Errorf("cx5: %d CNPs for %d marked packets; config=0 should disable coalescing", cx5.CNPs, cx5.Marked)
	}
	// E810 has the hidden ~50µs floor.
	e810 := byModel[rnic.ModelE810]
	if e810.MinInterval < 50*sim.Microsecond {
		t.Errorf("e810 min CNP interval %v, want ≥ 50µs hidden floor", e810.MinInterval)
	}
	if e810.CNPs >= e810.Marked/10 {
		t.Errorf("e810: %d CNPs for %d marked; the floor should coalesce heavily", e810.CNPs, e810.Marked)
	}
}

func TestCNPScopeMatchesPaper(t *testing.T) {
	for _, p := range must(CNPScopes(rnic.HardwareModelNames()))(t) {
		if p.Inferred != p.Expected {
			t.Errorf("%s: inferred %s, paper says %s", p.Model, p.Inferred, p.Expected)
		}
	}
}

func TestAdaptiveRetransShape(t *testing.T) {
	prof := rnic.Profiles()[rnic.ModelCX6]
	on := must(AdaptiveRetrans(rnic.ModelCX6, true, 7))(t)
	if len(on) < len(prof.AdaptiveTimeouts) {
		t.Fatalf("measured %d adaptive timeouts, want ≥ %d", len(on), len(prof.AdaptiveTimeouts))
	}
	for i, want := range prof.AdaptiveTimeouts {
		got := on[i].Timeout
		ratio := float64(got) / float64(want)
		if ratio < 0.98 || ratio > 1.05 {
			t.Errorf("adaptive retry %d: %v, schedule %v", i+1, got, want)
		}
	}
	// With adaptive off, every retry waits the spec RTO.
	off := must(AdaptiveRetrans(rnic.ModelCX6, false, 3))(t)
	for _, p := range off {
		ratio := float64(p.Timeout) / float64(p.SpecRTO)
		if ratio < 0.99 || ratio > 1.05 {
			t.Errorf("spec-mode retry %d: %v, want RTO %v", p.Retry, p.Timeout, p.SpecRTO)
		}
	}
}

func TestDumperLBShape(t *testing.T) {
	pts := must(DumperLB(8))(t)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	twoHost, pool := pts[0], pts[1]
	if !strings.Contains(twoHost.Design, "two-host") {
		twoHost, pool = pool, twoHost
	}
	if pool.SuccessRatio != 1.0 {
		t.Errorf("pool success = %.0f%%, want 100%%", pool.SuccessRatio*100)
	}
	if twoHost.SuccessRatio >= pool.SuccessRatio {
		t.Errorf("two-host success %.0f%% not below pool %.0f%%",
			twoHost.SuccessRatio*100, pool.SuccessRatio*100)
	}
	if twoHost.TotalDrops == 0 {
		t.Error("two-host design dropped nothing; capacity model broken")
	}
}

func TestSwitchOverheadClaim(t *testing.T) {
	p := must(SwitchOverhead())(t)
	if p.OneWayExtra <= 0 || p.OneWayExtra > 400 {
		t.Fatalf("one-way pipeline overhead %v, want (0, 0.4µs]", p.OneWayExtra)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tab := must(Table2())(t)
	want := map[string]string{
		"Non-work conserving ETS (§6.2.1)":  "cx6",
		"Noisy neighbor (§6.2.2)":           "cx4",
		"Interoperability problem (§6.2.3)": "cx5+e810",
		"Counter inconsistency (§6.2.4)":    "cx4, e810",
		"CNP rate limiting modes (§6.3)":    "cx4, cx5, cx6, e810",
		"Adaptive retransmission (§6.3)":    "cx4, cx5, cx6",
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w {
				t.Errorf("%s: detected %q, want %q", row[0], row[1], w)
			}
		}
	}
	if len(tab.Rows) != len(want) {
		t.Errorf("table has %d rows, want %d", len(tab.Rows), len(want))
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer-cell") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestAblationShapes(t *testing.T) {
	// ETS clamp costs a lone flow roughly half the link.
	ets := must(AblateETSClamp())(t)
	if ets[0].Value >= ets[1].Value*0.7 {
		t.Errorf("clamped lone flow %.1f vs unclamped %.1f: clamp effect missing", ets[0].Value, ets[1].Value)
	}
	// The wedge carries essentially all of the noisy-neighbor damage.
	wedge := must(AblateWedge())(t)
	if wedge[0].Value < 100*wedge[1].Value {
		t.Errorf("wedged innocent MCT %.2fms vs unlimited-context %.2fms: want ≥100×", wedge[0].Value, wedge[1].Value)
	}
	// Strict APM carries all of the interop discards.
	apm := must(AblateAPM())(t)
	if apm[0].Value == 0 || apm[1].Value != 0 {
		t.Errorf("APM ablation = %v", apm)
	}
	// The RSS port rewrite removes the single-flow drop pathology.
	rss := must(AblateRSSRewrite())(t)
	if rss[0].Value != 0 || rss[1].Value == 0 {
		t.Errorf("RSS ablation = %v", rss)
	}
	// ACK coalescing cuts control packets ~linearly at equal goodput.
	ack := must(AblateAckCoalescing())(t)
	if ack[0].Value <= ack[2].Value*3 { // factor-1 ACKs ≫ factor-4 ACKs
		t.Errorf("ack coalescing ablation = %v", ack)
	}
	if ack[1].Value != ack[3].Value || ack[3].Value != ack[5].Value {
		t.Errorf("goodput should be invariant to coalescing: %v", ack)
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x,y", `quo"te`}, {"plain", "2"}},
	}
	got := tab.RenderCSV()
	want := "a,b\n\"x,y\",\"quo\"\"te\"\nplain,2\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}
