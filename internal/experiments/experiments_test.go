package experiments

import (
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/rnic"
)

func TestFigure11OtherNICsUnaffected(t *testing.T) {
	for _, model := range []string{rnic.ModelCX5, rnic.ModelE810} {
		pts, err := Figure11(model, []int{12})
		if err != nil {
			t.Fatal(err)
		}
		if pts[0].InnocentSlow {
			t.Errorf("%s: innocent flows slowed (MCT %v); noisy neighbor is CX4-specific", model, pts[0].InnocentMCT)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Non-work conserving ETS (§6.2.1)":  "cx6",
		"Noisy neighbor (§6.2.2)":           "cx4",
		"Interoperability problem (§6.2.3)": "cx5+e810",
		"Counter inconsistency (§6.2.4)":    "cx4, e810",
		"CNP rate limiting modes (§6.3)":    "cx4, cx5, cx6, e810",
		"Adaptive retransmission (§6.3)":    "cx4, cx5, cx6",
	}
	for _, r := range rows {
		if w, ok := want[r.Finding]; !ok {
			t.Errorf("unexpected finding %q", r.Finding)
		} else if got := joinModels(r.Detected); got != w {
			t.Errorf("%s: detected %q, want %q", r.Finding, got, w)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("table has %d rows, want %d", len(rows), len(want))
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
