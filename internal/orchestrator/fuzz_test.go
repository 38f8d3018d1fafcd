package orchestrator

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
)

// FuzzBuild feeds scenario bytes through config.Parse and Build, bare and
// with every observer on, without executing the testbed. Whatever Parse
// accepts, Build must assemble or refuse with an error: never panic, and
// never allocate past what Validate's size limits allow.
func FuzzBuild(f *testing.F) {
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
	observed := DefaultOptions()
	observed.Telemetry, observed.Lineage, observed.INT, observed.Coverage = true, true, true, true
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := config.Parse(data)
		if err != nil {
			return
		}
		for _, opts := range []Options{DefaultOptions(), observed} {
			_, _ = Build(cfg, opts) // a refusal is an answer; a panic is not
		}
	})
}
