package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
)

// TestScenarioHashAgreesAcrossPackages pins the single-definition
// property of the scenario content hash: corpus entry IDs, the generic
// config helper and result-cache scenario keys must all be the same
// function, or a served run and a corpus replay of the same scenario
// would silently stop sharing cache entries.
func TestScenarioHashAgreesAcrossPackages(t *testing.T) {
	for _, cfg := range []config.Test{dropConfig(), ecnConfig(), config.Default()} {
		corpusID, err := ID(cfg)
		if err != nil {
			t.Fatal(err)
		}
		configHash, err := config.ContentHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cacheKey, err := resultcache.KeyFor(cfg, "", orchestrator.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if corpusID != configHash || corpusID != cacheKey.Scenario {
			t.Fatalf("%s: hash disagreement: corpus.ID=%s config.ContentHash=%s resultcache.KeyFor(...).Scenario=%s",
				cfg.Name, corpusID, configHash, cacheKey.Scenario)
		}
	}
}

// TestCorpusReplayWarmCacheRunsZeroSimulations is the acceptance check
// for the replay/cache integration: a second replay of an unchanged
// corpus on the same build must be served entirely from the cache — no
// new misses, no new puts, so no simulations — and still produce the
// same green matrix, the same coverage frontier and a byte-identical
// artifact tree. A third, cache-less replay takes the remaining way a
// cell's artifacts reach the dump (rendered from the report's artifact
// table instead of resultcache.Render or stored bytes) and must be
// indistinguishable too.
func TestCorpusReplayWarmCacheRunsZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	replay := func(artifacts string, cache *resultcache.Cache) *Matrix {
		t.Helper()
		m, err := Replay(context.Background(), dir, ReplayOptions{
			Profiles:     testProfiles,
			Cache:        cache,
			INT:          true,
			Coverage:     true,
			ArtifactsDir: artifacts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !m.OK() {
			var buf bytes.Buffer
			m.Render(&buf)
			t.Fatalf("replay drifted:\n%s", buf.String())
		}
		return m
	}

	coldDir, warmDir, bareDir := filepath.Join(t.TempDir(), "cold"), filepath.Join(t.TempDir(), "warm"), filepath.Join(t.TempDir(), "bare")
	cold := replay(coldDir, cache)
	after := cache.Stats()
	cells := len(testProfiles) * 2 // two entries
	if after.Hits != 0 || after.Misses != uint64(cells) || after.Puts != uint64(cells) {
		t.Fatalf("cold replay stats = %+v, want %d misses and %d puts", after, cells, cells)
	}

	warm := replay(warmDir, cache)
	st := cache.Stats()
	if st.Misses != after.Misses || st.Puts != after.Puts {
		t.Fatalf("warm replay simulated: misses %d→%d, puts %d→%d",
			after.Misses, st.Misses, after.Puts, st.Puts)
	}
	if st.Hits != uint64(cells) {
		t.Fatalf("warm replay hit %d cells, want %d", st.Hits, cells)
	}

	bare := replay(bareDir, nil)

	// The judged matrix and the merged coverage frontier must be
	// indistinguishable from a cold replay's.
	renderMatrix := func(m *Matrix) string {
		var buf bytes.Buffer
		if err := m.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	coldCov, _ := json.Marshal(cold.Coverage)
	for name, m := range map[string]*Matrix{"warm": warm, "cache-less": bare} {
		if renderMatrix(cold) != renderMatrix(m) {
			t.Fatalf("%s matrix diverged:\n%s\nvs cold:\n%s", name, renderMatrix(m), renderMatrix(cold))
		}
		if cov, _ := json.Marshal(m.Coverage); !bytes.Equal(coldCov, cov) {
			t.Fatalf("%s coverage frontier differs from cold", name)
		}
	}

	// And the dumped artifact tree must be byte-identical.
	var files []string
	if err := filepath.WalkDir(coldDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, _ := filepath.Rel(coldDir, path)
			files = append(files, rel)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(testProfiles) * 3; len(files) != want { // summary+int+coverage per cell
		t.Fatalf("cold artifact tree has %d files, want %d: %v", len(files), want, files)
	}
	for _, rel := range files {
		coldBytes, err := os.ReadFile(filepath.Join(coldDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []string{warmDir, bareDir} {
			got, err := os.ReadFile(filepath.Join(other, rel))
			if err != nil {
				t.Fatalf("artifact %s missing from the %s tree: %v", rel, filepath.Base(other), err)
			}
			if !bytes.Equal(coldBytes, got) {
				t.Fatalf("artifact %s differs between the cold and %s replays", rel, filepath.Base(other))
			}
		}
	}
	for _, other := range []string{warmDir, bareDir} {
		if n := countFiles(t, other); n != len(files) {
			t.Fatalf("%s tree has %d files, cold has %d", filepath.Base(other), n, len(files))
		}
	}
}

func countFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	if err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCheckedInGoldensRoundTrip pins expected.json independently of the
// code: ProfileExpectation is now the orchestrator's Outcome type, and
// every golden document in the seed corpus must load and marshal back
// byte for byte through it.
func TestCheckedInGoldensRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "corpus", "*", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no seed corpus goldens found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := loadEntry(filepath.Dir(p))
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(&e.Expected, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(js, '\n'), data) {
			t.Errorf("%s does not round-trip:\n%s", p, js)
		}
	}
}
