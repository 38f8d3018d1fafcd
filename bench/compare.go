package main

import (
	"fmt"
	"io"
)

// verdict is one -compare row's outcome.
type verdict string

const (
	vOK         verdict = "ok"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved"
)

// judge applies one end-to-end metric's bound to a pair of readings.
// B regressed when it is worse than A by more than the bound. Otherwise
// the row is ok — unless either run's own spread is wider than the
// bound, in which case the pair cannot tell "unchanged" from "changed"
// and the row is unresolved.
func judge(d metricDef, a, b, spreadA, spreadB float64) (verdict, float64) {
	worse := 0.0
	if a != 0 {
		worse = (b - a) / a
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > d.Bound:
		return vRegressed, worse
	case max(spreadA, spreadB) > d.Bound:
		return vUnresolved, worse
	}
	return vOK, worse
}

// compare prints one row per (workload, end-to-end metric) of B against
// A and one per differing exact count, and reports whether anything
// regressed.
func compare(w io.Writer, a, b *resultFile) (regressed bool, err error) {
	for _, r := range []*resultFile{a, b} {
		if r.Quick {
			return false, fmt.Errorf("refusing a -quick result: its op counts carry no percentile and no bound")
		}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return false, fmt.Errorf("results differ in seed (%d, %d) or seconds (%d, %d): exact counts and op counts only compare at equal settings",
			a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "worse by", "verdict")
	row := func(wl, metric string, va, vb, worse float64, v verdict) {
		fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+8.1f%%  %s\n", wl, metric, va, vb, worse*100, v)
		regressed = regressed || v == vRegressed
	}
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			return false, fmt.Errorf("workload %s is missing from B", wa.Name)
		}
		fa, fb := wa.EndToEnd[failRatio], wb.EndToEnd[failRatio]
		v := vOK
		if fb > fa {
			v = vRegressed
		}
		row(wa.Name, failRatio, fa, fb, fb-fa, v)
		for _, d := range endToEnd {
			v, worse := judge(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], wa.Spread[d.Name], wb.Spread[d.Name])
			row(wa.Name, d.Name, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], worse, v)
		}
		for _, d := range perLayer {
			va, inA := wa.PerLayer[d.Name]
			vb, inB := wb.PerLayer[d.Name]
			if d.Exact && (inA || inB) && va != vb {
				fmt.Fprintf(w, "%-15s %-34s %v != %v  exact count differs\n", wa.Name, d.Name, va, vb)
				regressed = true
			}
		}
	}
	return regressed, nil
}
