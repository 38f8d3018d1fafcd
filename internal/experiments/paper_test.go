package experiments

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden.csv from the workers=1 render, and EXPERIMENTS.md's claims lists")

const (
	goldenPath      = "testdata/experiments.golden.csv"
	experimentsPath = "../../EXPERIMENTS.md"
)

// renderPaper runs every experiment of Paper and renders each table as
// its title line followed by its CSV. With claims set, it checks each
// entry's claims in a subtest named after the entry.
func renderPaper(t *testing.T, claims bool) string {
	var b strings.Builder
	for _, ex := range Paper {
		tab, broken, err := ex.Run()
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if claims {
			t.Run(ex.Name, func(t *testing.T) {
				for _, c := range broken {
					t.Errorf("%s %q:\n%v", c.Section, c.Sentence, c.Why)
				}
			})
		}
		b.WriteString(tab.Title + "\n" + tab.RenderCSV())
	}
	return b.String()
}

// TestPaperTablesMatchGolden pins every row of the paper's tables and
// figures, rendered serially and on eight workers, and checks every
// claim of Paper on the serial run. A row that moves needs a CHANGES.md
// line naming the model change that moved it; -update rewrites the
// golden. A claim that breaks means the change broke the reproduction.
func TestPaperTablesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	for _, workers := range []int{1, 8} {
		got := atWorkers(t, workers, func() string { return renderPaper(t, workers == 1) })
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

// claimsBlock is one generated claims list of EXPERIMENTS.md and the
// entries of Paper it lists.
var claimsBlock = regexp.MustCompile(`(?s)<!-- claims: ([\w,-]+) -->\n.*?<!-- end claims -->`)

// TestExperimentsClaimsAreCurrent pins each claims list of
// EXPERIMENTS.md to the claims its entries declare in Paper, and lists
// every entry once; -update rewrites the lists.
func TestExperimentsClaimsAreCurrent(t *testing.T) {
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	got := claimsBlock.ReplaceAllStringFunc(string(doc), func(block string) string {
		names := claimsBlock.FindStringSubmatch(block)[1]
		var b strings.Builder
		fmt.Fprintf(&b, "<!-- claims: %s -->\n", names)
		for _, name := range strings.Split(names, ",") {
			listed[name]++
			i := slices.IndexFunc(Paper, func(ex Experiment) bool { return ex.Name == name })
			if i < 0 {
				t.Errorf("EXPERIMENTS.md lists claims of %q, which Paper does not hold", name)
				continue
			}
			for _, c := range Paper[i].Claims {
				fmt.Fprintf(&b, "- `%s` %s: %s\n", name, c.Section, c.Sentence)
			}
		}
		return b.String() + "<!-- end claims -->"
	})
	for _, ex := range Paper {
		if listed[ex.Name] != 1 {
			t.Errorf("EXPERIMENTS.md lists the claims of %s %d times, want once", ex.Name, listed[ex.Name])
		}
	}
	if got == string(doc) {
		return
	}
	if !*update {
		t.Fatalf("EXPERIMENTS.md's claims lists are stale; rerun with -update")
	}
	if err := os.WriteFile(experimentsPath, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkExperiments times each experiment of Paper end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, ex := range Paper {
		b.Run(ex.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ex.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
