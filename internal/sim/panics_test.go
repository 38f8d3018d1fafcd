package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPanicsAreClassified is the package's panic census: every panic in
// a non-test file must sit directly under a one-line "// invariant: …"
// comment saying why no scenario, pcap or HTTP body can reach it. A
// panic that input can reach does not get the comment — it becomes a
// config.Validate or Build error.
func TestPanicsAreClassified(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			if !strings.HasPrefix(strings.TrimSpace(line), "panic(") {
				continue
			}
			sites++
			if i == 0 || !strings.HasPrefix(strings.TrimSpace(lines[i-1]), "// invariant: ") {
				t.Errorf("%s:%d: panic without an \"// invariant: …\" line above it", name, i+1)
			}
		}
	}
	if sites == 0 {
		t.Fatal("census found no panic sites: the walk is broken")
	}
}
