package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden.csv from the workers=1 render")

const goldenPath = "testdata/experiments.golden.csv"

// renderPaper runs every experiment of Paper and renders each table as
// its title line followed by its CSV.
func renderPaper(t *testing.T) string {
	var b strings.Builder
	for _, ex := range Paper {
		tab, err := ex.Run()
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		b.WriteString(tab.Title + "\n" + tab.RenderCSV())
	}
	return b.String()
}

// TestPaperTablesMatchGolden pins every row of the paper's tables and
// figures, rendered serially and on eight workers. A row that moves
// needs a CHANGES.md line naming the model change that moved it; -update
// rewrites the golden.
func TestPaperTablesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	for _, workers := range []int{1, 8} {
		got := atWorkers(t, workers, func() string { return renderPaper(t) })
		if got == want {
			continue
		}
		if *update && workers == 1 {
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			want = got
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("workers=%d: line %d of %s differs:\n got  %q\n want %q", workers, i+1, goldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("workers=%d: rendered %d lines, %s holds %d", workers, len(gl), goldenPath, len(wl))
	}
}

// BenchmarkExperiments times each experiment of Paper end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, ex := range Paper {
		b.Run(ex.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
