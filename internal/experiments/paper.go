package experiments

import "github.com/lumina-sim/lumina/internal/rnic"

// Experiment is one table or figure of the paper's evaluation. Run
// measures it at the paper's parameters and renders the result.
type Experiment struct {
	Name string
	Run  func() (*Table, error)
}

// Paper is the evaluation in print order, and the one place that says
// which parameters reproduce each table and figure. `lumina bench` runs
// it; testdata/experiments.golden.csv pins every row it renders.
var Paper = []Experiment{
	{"fig7", table(func() ([]Figure7Point, error) { return Figure7(1000) }, Figure7Table)},
	{"fig8", table(figures8And9, Figure8Table)},
	{"fig9", table(figures8And9, Figure9Table)},
	{"fig10", table(func() ([]Figure10Point, error) {
		cx6, err := Figure10(rnic.ModelCX6)
		if err != nil {
			return nil, err
		}
		spec, err := Figure10(rnic.ModelSpec)
		return append(cx6, spec...), err
	}, Figure10Table)},
	{"fig11", table(func() ([]Figure11Point, error) { return Figure11(rnic.ModelCX4, []int{0, 8, 12, 16}) }, Figure11Table)},
	{"interop", table(func() ([]InteropPoint, error) {
		pts, err := Interop([]int{1, 2, 4, 8, 16, 24}, false)
		if err != nil {
			return nil, err
		}
		fixed, err := Interop([]int{16}, true)
		return append(pts, fixed...), err
	}, InteropTable)},
	{"cnp-interval", table(func() ([]CNPIntervalPoint, error) { return CNPIntervals(rnic.HardwareModelNames()) }, CNPIntervalTable)},
	{"cnp-scope", table(func() ([]CNPScopePoint, error) { return CNPScopes(rnic.HardwareModelNames()) }, CNPScopeTable)},
	{"adaptive", table(func() ([]AdaptiveRetransPoint, error) {
		on, err := AdaptiveRetrans(rnic.ModelCX6, true, 7)
		if err != nil {
			return nil, err
		}
		off, err := AdaptiveRetrans(rnic.ModelCX6, false, 3)
		return append(on, off...), err
	}, AdaptiveRetransTable)},
	{"dumper-lb", table(func() ([]DumperLBPoint, error) { return DumperLB(10) }, DumperLBTable)},
	{"overhead", table(SwitchOverhead, switchOverheadTable)},
	{"table2", Table2},
	{"ablation", table(AblationAll, AblationTable)},
}

// figures8And9 measures the points Figures 8 and 9 share: every
// hardware NIC, Write and Read, a drop at each position of the figures'
// x axis.
func figures8And9() ([]RetransPoint, error) {
	return Figures8And9(rnic.HardwareModelNames(), []int{1, 20, 40, 60, 80, 99})
}

// table is the experiment that measures once and renders the result.
func table[P any](measure func() (P, error), render func(P) *Table) func() (*Table, error) {
	return func() (*Table, error) {
		p, err := measure()
		if err != nil {
			return nil, err
		}
		return render(p), nil
	}
}
