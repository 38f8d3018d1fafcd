package config_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
)

// FuzzParseScenario feeds arbitrary bytes to Parse, which must never
// panic. Whatever it accepts must survive the canonical round trip: the
// re-parsed document marshals to the same bytes and hashes the same,
// so a scenario's identity does not depend on how it was spelled.
// orchestrator's FuzzBuild carries the same bytes on into Build.
func FuzzParseScenario(f *testing.F) {
	for _, g := range []string{"configs/*.yaml", "corpus/*/scenario.yaml", "bench/workloads/*.yaml", "examples/*/*.yaml"} {
		files, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := config.Parse(data)
		if err != nil {
			return
		}
		y, err := c.MarshalYAML()
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		back, err := config.Parse(y)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, y)
		}
		if y2, err := back.MarshalYAML(); err != nil || string(y2) != string(y) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\n---\n%s", err, y, y2)
		}
		h1, err1 := config.ContentHash(c)
		h2, err2 := config.ContentHash(back)
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("ContentHash moved across the round trip: %s (%v) vs %s (%v)", h1, err1, h2, err2)
		}
	})
}
