package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Experiment is one table or figure of the paper's evaluation and what
// the paper claims of it. Run measures it at the paper's parameters,
// renders the result and returns the claims the measured points broke.
type Experiment struct {
	Name   string
	Claims []Claim
	Run    func() (*Table, []Broken, error)
}

// Claim is a sentence of the paper about an experiment's result. The
// reproduction owes the paper its shapes (who wins, by roughly what
// factor, where a crossover falls), not its testbed's absolute values,
// so each claim's check bounds orders and ratios.
type Claim struct {
	Section  string // where the paper makes it, or "ablation" for the model's own
	Sentence string
}

// Broken is a claim a run's points did not bear out, and why.
type Broken struct {
	Claim
	Why error
}

// Paper is the evaluation in print order, and the one place that says
// which parameters reproduce each table and figure and what the paper
// claims of it. `lumina bench` runs it and fails on a broken claim;
// testdata/experiments.golden.csv pins every row it renders, and
// EXPERIMENTS.md's claims lists are rendered from it.
var Paper = []Experiment{
	table("fig7", func() ([]Figure7Point, error) { return Figure7(1000) }, Figure7Table,
		says("§5", "Mirroring has negligible impact on message completion time: Lumina ≈ Lumina-nm.",
			fig7Sizes(func(lum, nm, _, _ float64) error { return within("Lumina/Lumina-nm", lum/nm, 0.99, 1.01) })),
		says("§5", "Event injection adds a small overhead over Lumina-ne and plain L2 forwarding.",
			fig7Sizes(func(lum, _, ne, l2 float64) error {
				return errors.Join(within("Lumina − Lumina-ne (ns)", lum-ne, 1, inf),
					within("Lumina − l2-forward (ns)", lum-l2, 1, inf), within("Lumina/l2-forward", lum/l2, 1, 1.2))
			})),
		says("§5", "Without event-injection tables the switch costs what L2 forwarding does: Lumina-ne ≈ l2-forward.",
			fig7Sizes(func(_, _, ne, l2 float64) error { return within("Lumina-ne/l2-forward", ne/l2, 1, 1) })),
	),
	table("fig8", figures8And9, Figure8Table,
		says("§6.1", "CX5 and CX6 Dx generate a NACK within a few µs, for Write and Read alike.",
			nackWithin(nackGen, 0, 10, "cx5/write", "cx5/read", "cx6/write", "cx6/read")),
		says("§6.1", "CX4 Lx takes ~150 µs to notice a lost Read response.", nackWithin(nackGen, 100, 300, "cx4/read")),
		says("§6.1", "E810 generates a Write NACK in ~10 µs.", nackWithin(nackGen, 0, 20, "e810/write")),
		says("§6.1", "E810 takes ~83 ms to notice a lost Read response, over 1000× its Write NACK generation.",
			func(pts []RetransPoint) error {
				read, write := worstUS(pts, "e810/read", nackGen), worstUS(pts, "e810/write", nackGen)
				return errors.Join(within("e810/read worst (ms)", read/1000, 50, 120),
					within("e810 read over write worst", read/write, 1000, inf))
			}),
	),
	table("fig9", figures8And9, Figure9Table,
		says("§6.1", "CX5 and CX6 Dx react to a NACK within a few µs: the best retransmission performance of the NICs tested.",
			nackWithin(nackReact, 0, 15, "cx5/write", "cx5/read", "cx6/write", "cx6/read")),
		says("§6.1", "CX4 Lx's Write retransmission takes hundreds of µs, dominated by its NACK reaction.",
			nackWithin(nackReact, 100, 400, "cx4/write")),
	),
	table("fig10", func() ([]Figure10Point, error) {
		cx6, err := Figure10(rnic.ModelCX6)
		if err != nil {
			return nil, err
		}
		spec, err := Figure10(rnic.ModelSpec)
		return append(cx6, spec...), err
	}, Figure10Table,
		says("§6.2.1", "With two 50 % ETS queues and no ECN, each QP gets about half the line rate.",
			all(bar("cx6", ETSMultiQueueVanilla, 0, 40, 55), bar("cx6", ETSMultiQueueVanilla, 1, 40, 55),
				bar("spec", ETSMultiQueueVanilla, 0, 40, 55), bar("spec", ETSMultiQueueVanilla, 1, 40, 55))),
		says("§6.2.1", "DCQCN throttles the ECN-marked QP0.", bar("cx6", ETSMultiQueueECN, 0, 0, 20)),
		says("§6.2.1", "On CX6 Dx, QP1 stays at its 50 % guarantee instead of taking the bandwidth DCQCN frees from QP0: ETS is not work-conserving.",
			all(bar("cx6", ETSMultiQueueECN, 1, 0, 55), func(pts []Figure10Point) error {
				spec, cx6 := goodput(pts, "spec", ETSMultiQueueECN, 1), goodput(pts, "cx6", ETSMultiQueueECN, 1)
				return within("spec over cx6 QP1 under ECN", spec/cx6, 1.3, inf)
			})),
		says("§6.2.1", "A work-conserving NIC gives QP1 the freed bandwidth.", bar("spec", ETSMultiQueueECN, 1, 65, inf)),
		says("§6.2.1", "With a single queue, CX6 Dx's QP1 takes the freed bandwidth too.", bar("cx6", ETSSingleQueueECN, 1, 65, inf)),
	),
	table("fig11", func() ([]Figure11Point, error) { return Figure11(rnic.ModelCX4, []int{0, 8, 12, 16}) }, Figure11Table,
		says("§6.2.2", "Until 12 connections see drops, innocent connections complete in ~160 µs with no discards.",
			each(func(p Figure11Point) bool { return p.DropConns < 12 }, func(p Figure11Point) error {
				return errors.Join(within(fmt.Sprintf("innocent MCT at i=%d (µs)", p.DropConns), p.InnocentMCT.Microseconds(), 0, 2*160),
					within(fmt.Sprintf("rx_discards_phy at i=%d", p.DropConns), float64(p.RxDiscards), 0, 0))
			})),
		says("§6.2.2", "From 12 drop-injected Read connections the CX4 Lx wedges: innocent connections slow by orders of magnitude, their worst message takes hundreds of ms, and rx_discards_phy climbs.",
			each(func(p Figure11Point) bool { return p.DropConns >= 12 }, func(p Figure11Point) error {
				return errors.Join(within(fmt.Sprintf("innocent MCT at i=%d (µs)", p.DropConns), p.InnocentMCT.Microseconds(), 100*160, inf),
					within(fmt.Sprintf("worst innocent message at i=%d (ms)", p.DropConns), p.InnocentMax.Microseconds()/1000, 100, inf),
					within(fmt.Sprintf("rx_discards_phy at i=%d", p.DropConns), float64(p.RxDiscards), 1, inf))
			})),
	),
	table("interop", func() ([]InteropPoint, error) {
		pts, err := Interop([]int{1, 2, 4, 8, 16, 24}, false)
		if err != nil {
			return nil, err
		}
		fixed, err := Interop([]int{16}, true)
		return append(pts, fixed...), err
	}, InteropTable,
		says("§6.2.3", "Below 16 concurrent QPs the CX5 responder discards nothing.",
			each(func(p InteropPoint) bool { return !p.FixMigReq && p.QPs < 16 }, func(p InteropPoint) error {
				return within(fmt.Sprintf("rx_discards_phy at %d QPs", p.QPs), float64(p.RxDiscards), 0, 0)
			})),
		says("§6.2.3", "From 16 QPs the CX5 discards packets, and victim messages take orders of magnitude longer than clean ones (20 460 µs vs 156 µs).",
			each(func(p InteropPoint) bool { return !p.FixMigReq && p.QPs >= 16 }, func(p InteropPoint) error {
				return errors.Join(within(fmt.Sprintf("rx_discards_phy at %d QPs", p.QPs), float64(p.RxDiscards), 1, inf),
					within(fmt.Sprintf("victim messages at %d QPs", p.QPs), float64(p.SlowMsgs), 1, inf),
					within(fmt.Sprintf("victim over clean MCT at %d QPs", p.QPs), float64(p.AvgSlowMCT)/float64(p.AvgCleanMCT), 50, inf))
			})),
		says("§6.2.3", "Rewriting MigReq to 1 in flight stops the discards.",
			each(func(p InteropPoint) bool { return p.FixMigReq }, func(p InteropPoint) error {
				return errors.Join(within(fmt.Sprintf("rx_discards_phy with the fix at %d QPs", p.QPs), float64(p.RxDiscards), 0, 0),
					within(fmt.Sprintf("victim messages with the fix at %d QPs", p.QPs), float64(p.SlowMsgs), 0, 0))
			})),
	),
	table("cnp-interval", func() ([]CNPIntervalPoint, error) { return CNPIntervals(rnic.HardwareModelNames()) }, CNPIntervalTable,
		says("§6.3", "NVIDIA NICs honor min-time-between-cnps = 0: about one CNP per ECN-marked packet.",
			each(func(p CNPIntervalPoint) bool { return p.Model != rnic.ModelE810 }, func(p CNPIntervalPoint) error {
				return within(p.Model+" CNPs per marked packet", float64(p.CNPs)/float64(p.Marked), 0.5, inf)
			})),
		says("§6.3", "E810 spaces CNPs ~50 µs apart whatever the configuration asks: a hidden minimum interval.",
			each(func(p CNPIntervalPoint) bool { return p.Model == rnic.ModelE810 }, func(p CNPIntervalPoint) error {
				return errors.Join(within("e810 minimum CNP interval (µs)", p.MinInterval.Microseconds(), 50, inf),
					within("e810 CNPs per marked packet", float64(p.CNPs)/float64(p.Marked), 0, 0.1))
			})),
	),
	table("cnp-scope", func() ([]CNPScopePoint, error) { return CNPScopes(rnic.HardwareModelNames()) }, CNPScopeTable,
		says("§6.3", "CX4 Lx rate-limits CNPs per destination IP, CX5 and CX6 Dx per port, and E810 per QP.",
			each(func(p CNPScopePoint) bool { return p.Inferred != p.Expected }, func(p CNPScopePoint) error {
				return fmt.Errorf("%s: inferred %s, paper says %s", p.Model, p.Inferred, p.Expected)
			})),
	),
	table("adaptive", func() ([]AdaptiveRetransPoint, error) {
		on, err := AdaptiveRetrans(rnic.ModelCX6, true, 7)
		if err != nil {
			return nil, err
		}
		off, err := AdaptiveRetrans(rnic.ModelCX6, false, 3)
		return append(on, off...), err
	}, AdaptiveRetransTable,
		says("§6.3", "With adaptive retransmission on, CX6 Dx retries after 5.6, 4.1, 8.4, 16.7, 25.1, 67.1 and 134.2 ms instead of the spec timeout.",
			func(pts []AdaptiveRetransPoint) error {
				schedule := []float64{5.6, 4.1, 8.4, 16.7, 25.1, 67.1, 134.2}
				var errs []error
				retries := 0
				for _, p := range pts {
					if p.Adaptive && p.Retry <= len(schedule) {
						retries++
						errs = append(errs, within(fmt.Sprintf("retry %d over the paper's", p.Retry), p.Timeout.Microseconds()/1000/schedule[p.Retry-1], 0.98, 1.05))
					}
				}
				return errors.Join(append(errs, within("adaptive retries", float64(retries), 7, 7))...)
			}),
		says("§6.3", "With it off, every retry waits the IB-spec timeout, 67.1 ms at timeout=14.",
			each(func(p AdaptiveRetransPoint) bool { return !p.Adaptive }, func(p AdaptiveRetransPoint) error {
				return within(fmt.Sprintf("spec-mode retry %d over the spec RTO", p.Retry), float64(p.Timeout)/float64(p.SpecRTO), 0.99, 1.05)
			})),
	),
	table("dumper-lb", func() ([]DumperLBPoint, error) { return DumperLB(10) }, DumperLBTable,
		says("§3.4", "Per-packet load balancing with RSS port rewriting lifts complete-capture success from ~30 % to nearly 100 %.",
			func(pts []DumperLBPoint) error {
				if len(pts) != 2 {
					return fmt.Errorf("%d designs, want two-host and pool", len(pts))
				}
				twoHost, pool := pts[0], pts[1]
				return errors.Join(within("pool success ratio", pool.SuccessRatio, 1, 1),
					within("two-host success ratio", twoHost.SuccessRatio, 0, 0.99),
					within("two-host dumper drops", float64(twoHost.TotalDrops), 1, inf))
			}),
	),
	table("overhead", SwitchOverhead, switchOverheadTable,
		says("§5", "The full Lumina pipeline adds less than 0.4 µs one-way over plain L2 forwarding.", func(p SwitchOverheadPoint) error {
			return within("one-way extra latency (ns)", float64(p.OneWayExtra), 1, 400)
		}),
	),
	table("table2", Table2, Table2Table,
		affects("§6.2.1", "CX6 Dx alone has non-work-conserving ETS.", "Non-work conserving ETS (§6.2.1)", "cx6"),
		affects("§6.2.2", "The noisy neighbor is CX4 Lx's alone: CX5, CX6 Dx and E810 carry 12 drop-injected Read connections unharmed.", "Noisy neighbor (§6.2.2)", "cx4"),
		affects("§6.2.3", "The interoperability problem is an E810 requester's MigReq=0 meeting a CX5 responder.", "Interoperability problem (§6.2.3)", "cx5+e810"),
		affects("§6.2.4", "CX4 Lx and E810 counters disagree with the wire; CX5 and CX6 Dx count correctly.", "Counter inconsistency (§6.2.4)", "cx4", "e810"),
		affects("§6.3", "Every NIC tested rate-limits CNPs, each in a mode of its own.", "CNP rate limiting modes (§6.3)", "cx4", "cx5", "cx6", "e810"),
		affects("§6.3", "Every ConnectX NIC has adaptive retransmission.", "Adaptive retransmission (§6.3)", "cx4", "cx5", "cx6"),
	),
	table("ablation", AblationAll, AblationTable,
		says("ablation", "The guarantee clamp carries CX6 Dx's ETS finding (§6.2.1): without it a lone flow in one of two queues takes well over its half.",
			ablated("ets-clamp", 2, func(v []float64) error { return within("clamped over unclamped goodput", v[0]/v[1], 0, 0.7) })),
		says("ablation", "The slow-path wedge carries the noisy neighbor (§6.2.2): with unlimited contexts innocent MCT falls 100-fold.",
			ablated("slow-path-wedge", 2, func(v []float64) error { return within("wedged over unlimited innocent MCT", v[0]/v[1], 100, inf) })),
		says("ablation", "Strict APM carries every interop discard (§6.2.3).", ablated("strict-apm", 2, func(v []float64) error {
			return errors.Join(within("discards with strict APM", v[0], 1, inf), within("discards without", v[1], 0, 0))
		})),
		says("ablation", "The RSS port rewrite removes every dumper drop of a line-rate flow (§3.4).", ablated("rss-rewrite", 2, func(v []float64) error {
			return errors.Join(within("drops with the rewrite", v[0], 0, 0), within("drops without", v[1], 1, inf))
		})),
		says("ablation", "ACK coalescing cuts the responder's control packets about in proportion, at equal goodput.", ablated("ack-coalesce", 6, func(v []float64) error {
			return errors.Join(within("factor-1 over factor-4 responder packets", v[0]/v[2], 3, inf),
				within("factor-4 over factor-1 goodput", v[3]/v[1], 1, 1), within("factor-16 over factor-1 goodput", v[5]/v[1], 1, 1))
		})),
	),
}

// figures8And9 measures the points Figures 8 and 9 share: every
// hardware NIC, Write and Read, a drop at each position of the figures'
// x axis.
func figures8And9() ([]RetransPoint, error) {
	return Figures8And9(rnic.HardwareModelNames(), []int{1, 20, 40, 60, 80, 99})
}

// claim is a Claim with its check over an experiment's typed points.
type claim[P any] struct {
	Claim
	holds func(P) error
}

func says[P any](section, sentence string, holds func(P) error) claim[P] {
	return claim[P]{Claim{section, sentence}, holds}
}

// table is the experiment that measures once, renders the result and
// checks every claim against the same points.
func table[P any](name string, measure func() (P, error), render func(P) *Table, claims ...claim[P]) Experiment {
	ex := Experiment{Name: name}
	for _, c := range claims {
		ex.Claims = append(ex.Claims, c.Claim)
	}
	ex.Run = func() (*Table, []Broken, error) {
		p, err := measure()
		if err != nil {
			return nil, nil, err
		}
		var broken []Broken
		for _, c := range claims {
			if err := c.holds(p); err != nil {
				broken = append(broken, Broken{c.Claim, err})
			}
		}
		return render(p), broken, nil
	}
	return ex
}

var inf = math.Inf(1)

// within fails unless lo ≤ v ≤ hi. NaN, a ratio over a missing point,
// fails every bound.
func within(what string, v, lo, hi float64) error {
	if lo <= v && v <= hi {
		return nil
	}
	return fmt.Errorf("%s = %.4g, want within [%g, %g]", what, v, lo, hi)
}

// all holds when every check holds.
func all[P any](checks ...func(P) error) func(P) error {
	return func(p P) error {
		var errs []error
		for _, check := range checks {
			errs = append(errs, check(p))
		}
		return errors.Join(errs...)
	}
}

// each holds when check holds for every point keep selects.
func each[P any](keep func(P) bool, check func(P) error) func([]P) error {
	return func(pts []P) error {
		var errs []error
		for _, p := range pts {
			if keep(p) {
				errs = append(errs, check(p))
			}
		}
		return errors.Join(errs...)
	}
}

// fig7Sizes checks each message size's four MCTs (ns), in the legend
// order Figure7 measures them.
func fig7Sizes(check func(lum, nm, ne, l2 float64) error) func([]Figure7Point) error {
	return func(pts []Figure7Point) error {
		var errs []error
		for i := 0; i+4 <= len(pts); i += 4 {
			if err := check(float64(pts[i].AvgMCT), float64(pts[i+1].AvgMCT), float64(pts[i+2].AvgMCT), float64(pts[i+3].AvgMCT)); err != nil {
				errs = append(errs, fmt.Errorf("%d KB: %w", pts[i].MsgBytes/1024, err))
			}
		}
		return errors.Join(errs...)
	}
}

func nackGen(p RetransPoint) sim.Duration   { return p.Gen }
func nackReact(p RetransPoint) sim.Duration { return p.React }

// worstUS is the largest latency (µs) over the drop positions of one
// "nic/verb" series, NaN when the series is missing.
func worstUS(pts []RetransPoint, series string, latency func(RetransPoint) sim.Duration) float64 {
	worst := math.NaN()
	for _, p := range pts {
		if v := latency(p).Microseconds(); p.Model+"/"+p.Verb == series && !(v <= worst) {
			worst = v
		}
	}
	return worst
}

// nackWithin bounds the worst latency (µs) of each "nic/verb" series.
func nackWithin(latency func(RetransPoint) sim.Duration, lo, hi float64, series ...string) func([]RetransPoint) error {
	return func(pts []RetransPoint) error {
		var errs []error
		for _, s := range series {
			errs = append(errs, within(s+" worst (µs)", worstUS(pts, s, latency), lo, hi))
		}
		return errors.Join(errs...)
	}
}

// goodput is one bar of Figure 10, NaN when it is missing.
func goodput(pts []Figure10Point, model string, s ETSSetting, qp int) float64 {
	for _, p := range pts {
		if p.Model == model && p.Setting == s && p.QP == qp {
			return p.GoodputGbps
		}
	}
	return math.NaN()
}

// bar bounds one bar of Figure 10 (Gbps).
func bar(model string, s ETSSetting, qp int, lo, hi float64) func([]Figure10Point) error {
	return func(pts []Figure10Point) error {
		return within(fmt.Sprintf("%s %s QP%d (Gbps)", model, s, qp), goodput(pts, model, s, qp), lo, hi)
	}
}

// affects claims that a Table 2 finding's detector flags exactly models.
func affects(section, sentence, finding string, models ...string) claim[[]Table2Row] {
	return says(section, sentence, func(rows []Table2Row) error {
		i := slices.IndexFunc(rows, func(r Table2Row) bool { return r.Finding == finding })
		switch {
		case i < 0:
			return fmt.Errorf("no row %q", finding)
		case !slices.Equal(rows[i].Detected, models):
			return fmt.Errorf("%s: detected %s, want %s", finding, joinModels(rows[i].Detected), joinModels(models))
		}
		return nil
	})
}

// ablated checks the n values of one ablation, in the order it
// measures them.
func ablated(name string, n int, check func(v []float64) error) func([]AblationPoint) error {
	return func(pts []AblationPoint) error {
		var v []float64
		for _, p := range pts {
			if p.Ablation == name {
				v = append(v, p.Value)
			}
		}
		if len(v) != n {
			return fmt.Errorf("%s: %d values, want %d", name, len(v), n)
		}
		return check(v)
	}
}
