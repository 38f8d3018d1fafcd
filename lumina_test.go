package lumina_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	lumina "github.com/lumina-sim/lumina"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	cfg := lumina.DefaultConfig()
	cfg.Requester.NIC.Type = lumina.ModelCX5
	cfg.Responder.NIC.Type = lumina.ModelCX5
	cfg.Traffic.Events = []lumina.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}

	rep, err := lumina.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IntegrityOK {
		t.Fatalf("integrity: %s", rep.IntegrityDetail)
	}
	gbn := lumina.CheckGoBackN(rep.Trace)
	if !gbn.OK() || gbn.Events != 1 {
		t.Fatalf("gbn = %+v", gbn)
	}
	evs := lumina.AnalyzeRetransmissions(rep.Trace)
	if len(evs) != 1 || evs[0].TotalLatency() <= 0 {
		t.Fatalf("retrans events = %+v", evs)
	}
}

func TestFacadeModels(t *testing.T) {
	for _, m := range []string{lumina.ModelCX4, lumina.ModelCX5, lumina.ModelCX6, lumina.ModelE810, lumina.ModelSpec} {
		cfg := lumina.DefaultConfig()
		cfg.Requester.NIC.Type = m
		cfg.Responder.NIC.Type = m
		cfg.Traffic.MessageSize = 2048
		rep, err := lumina.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep.Traffic.Conns[0].Statuses["OK"] != 1 {
			t.Fatalf("%s: %v", m, rep.Traffic.Conns[0].Statuses)
		}
	}
}

func TestFacadeFuzzerConstruction(t *testing.T) {
	target := lumina.NoisyNeighborTarget(lumina.ModelCX4)
	if _, err := lumina.NewFuzzer(target, lumina.FuzzOptions{Seed: 1, PoolSize: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDocsNameOnlyDeclaredNames fails when a user-facing document names
// a lumina.<Name> that lumina.go does not declare, a Test… that is not
// the prefix of a test function somewhere in the module, or a Fuzz…
// that is not a fuzz target.
func TestDocsNameOnlyDeclaredNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "lumina.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for name := range f.Scope.Objects {
		declared[name] = true
	}
	var tests []string
	fuzzTargets := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if name := string(m[1]); strings.HasPrefix(name, "Fuzz") {
				fuzzTargets[name] = true
			} else {
				tests = append(tests, name)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	testName := regexp.MustCompile(`\bTest[A-Z]\w*`)
	fuzzName := regexp.MustCompile(`\bFuzz[A-Z]\w*`)
	mention := regexp.MustCompile(`\blumina\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mention.FindAllStringSubmatch(line, -1) {
				if !declared[m[1]] {
					t.Errorf("%s:%d names lumina.%s, which lumina.go does not declare", doc, i+1, m[1])
				}
			}
			for _, name := range testName.FindAllString(line, -1) {
				if !slices.ContainsFunc(tests, func(test string) bool { return strings.HasPrefix(test, name) }) {
					t.Errorf("%s:%d names %s, which no test function's name starts with", doc, i+1, name)
				}
			}
			for _, name := range fuzzName.FindAllString(line, -1) {
				if !fuzzTargets[name] {
					t.Errorf("%s:%d names %s, which is no fuzz target", doc, i+1, name)
				}
			}
		}
	}
}

// TestDesignModuleMapIsCurrent reads the tree in DESIGN.md §2: every
// path it names must exist, and every directory under internal/ and
// examples/ must be named.
func TestDesignModuleMapIsCurrent(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "\n## 2. ")
	_, tree, _ := strings.Cut(section, "```\n")
	tree, _, _ = strings.Cut(tree, "```")
	named := map[string]bool{}
	var dirs []string // dirs[d] is the directory entered at depth d
	for _, line := range strings.Split(tree, "\n") {
		runes := []rune(line)
		at := slices.IndexFunc(runes, func(r rune) bool { return r == '├' || r == '└' })
		if at < 0 {
			continue // the module root, or a description's continuation
		}
		depth := at / 4
		entry, _, _ := strings.Cut(string(runes[at+4:]), "  ")
		for _, name := range strings.Split(entry, " / ") {
			path := strings.Join(append(slices.Clone(dirs[:depth]), name), "")
			named[strings.TrimSuffix(path, "/")] = true
			if _, err := os.Stat(path); err != nil {
				t.Errorf("DESIGN.md §2 names %s: %v", path, err)
			}
			if strings.HasSuffix(name, "/") {
				dirs = append(dirs[:depth], name)
			}
		}
	}
	for _, parent := range []string{"internal", "examples"} {
		des, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if dir := parent + "/" + de.Name(); de.IsDir() && !named[dir] {
				t.Errorf("DESIGN.md §2 does not name %s/", dir)
			}
		}
	}
	if !named["internal/sim"] || !named["cmd/lumina"] {
		t.Fatalf("the tree read wrong: %d paths, internal/sim or cmd/lumina missing", len(named))
	}
}
