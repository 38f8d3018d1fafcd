package sim

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// censusExempt names the internal/ packages whose panics the census
// skips, each with the reason.
var censusExempt = map[string]string{
	// perfgate is a measurement harness, not a library: its workloads
	// panic when a fixed, checked-in scenario fails to run, and the
	// panic is the gate's failure report.
	"perfgate": "measurement harness: a panic reports a broken built-in workload",
}

// TestPanicsAreClassified is the panic census of internal/: every panic
// in a non-test file must sit directly under a one-line
// "// invariant: …" comment saying why no scenario, pcap or HTTP body
// can reach it. A panic that input can reach does not get the comment —
// it becomes a config.Validate or Build error.
func TestPanicsAreClassified(t *testing.T) {
	root := ".." // internal/
	sites, pkgs := 0, map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if rel, _ := filepath.Rel(root, path); censusExempt[rel] != "" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			if !strings.HasPrefix(strings.TrimSpace(line), "panic(") {
				continue
			}
			sites++
			pkgs[filepath.Dir(path)] = true
			if i == 0 || !strings.HasPrefix(strings.TrimSpace(lines[i-1]), "// invariant: ") {
				t.Errorf("%s:%d: panic without an \"// invariant: …\" line above it", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pkgs[filepath.Join(root, "sim")] || len(pkgs) < 2 {
		t.Fatalf("the walk is broken: %d panic sites in %d packages, sim's found: %v", sites, len(pkgs), pkgs[filepath.Join(root, "sim")])
	}
}
