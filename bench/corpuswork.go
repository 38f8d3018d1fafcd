package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
)

// pinned is a corpus entry the benchmark depends on, by content
// address. A missing or renamed entry fails set-up loudly instead of
// silently changing the load.
type pinned struct{ id, name string }

// smallPins are the six small pair-testbed corpus entries: what
// corpus_cold replays and serve_mix submits. The other three entries
// (ets-cx6, interop-e810-cx5, fabric-incast-16) are 99 % of a full
// replay's time; a workload that includes them measures the data path
// again, which bulk_* and incast_shards2 already do.
var smallPins = []pinned{
	{"a982ccd565a57c48", "listing2"},
	{"c9d03d7220e60919", "retrans-probe"},
	{"19aed828727d4213", "retry-exhaustion"},
	{"a22ffd9ade27a8df", "uc-write-gap"},
	{"52380f835dfdf2fd", "ud-datagram-loss"},
	{"131fb80582e7bfee", "interop-rc-ud-ets"},
}

// loadPinned parses the pinned entries' scenarios from corpus/.
func loadPinned(e *env, pins []pinned) ([]config.Test, error) {
	cfgs := make([]config.Test, len(pins))
	for i, p := range pins {
		cfg, err := config.Load(filepath.Join(e.root, "corpus", p.id, "scenario.yaml"))
		if err != nil {
			return nil, fmt.Errorf("pinned corpus entry %s (%s): %w", p.id, p.name, err)
		}
		if id, err := corpus.ID(cfg); err != nil || id != p.id {
			return nil, fmt.Errorf("pinned corpus entry %s (%s) now hashes to %q (%v)", p.id, p.name, id, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// stageCorpus copies the pinned entries into dir, the corpus root the
// workload replays: corpus.Replay takes a directory, not a list.
func stageCorpus(e *env, pins []pinned, dir string) error {
	for _, p := range pins {
		if err := os.MkdirAll(filepath.Join(dir, p.id), 0o755); err != nil {
			return err
		}
		for _, f := range []string{"scenario.yaml", "expected.json"} {
			data, err := os.ReadFile(filepath.Join(e.root, "corpus", p.id, f))
			if err != nil {
				return fmt.Errorf("pinned corpus entry %s (%s): %w", p.id, p.name, err)
			}
			if err := os.WriteFile(filepath.Join(dir, p.id, f), data, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// withProfile retargets both hosts at one NIC model, as a corpus matrix
// column and a served profile do.
func withProfile(cfg config.Test, profile string) config.Test {
	cfg.Requester.NIC.Type = profile
	cfg.Responder.NIC.Type = profile
	return cfg
}

// cellOptions are the options corpus replay and the daemon run a cell
// under.
func cellOptions() orchestrator.Options {
	o := orchestrator.DefaultOptions()
	o.Lineage = true
	return o
}

type corpusInst struct {
	e      *env
	dir    string // staged corpus root
	caches string // parent of the staged corpus and the probes' caches
	tr     *tracer
	cfgs   []config.Test
	pkts   uint64 // switch packets one cold replay simulates
	failed int    // cells that did not pass, over all ops
}

func setupCorpus(e *env, _ string, _ plan, tr *tracer) (instance, error) {
	cfgs, err := loadPinned(e, smallPins)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "corpus-")
	if err != nil {
		return nil, err
	}
	c := &corpusInst{e: e, dir: filepath.Join(dir, "entries"), caches: dir, tr: tr, cfgs: cfgs}
	if err := stageCorpus(e, smallPins, c.dir); err != nil {
		return nil, err
	}
	// corpus.Replay does not say how many packets it simulated, so run
	// each cell once directly and count.
	for _, cfg := range cfgs {
		for _, p := range corpus.AllProfiles() {
			rep, err := orchestrator.Run(withProfile(cfg, p), cellOptions())
			if err != nil {
				return nil, fmt.Errorf("cell %s@%s: %w", cfg.Name, p, err)
			}
			c.pkts += rep.SwitchTotals.RxRoCE
		}
	}
	return c, nil
}

func (c *corpusInst) close() { os.RemoveAll(c.caches) }

func (c *corpusInst) cells() int { return len(c.cfgs) * len(corpus.AllProfiles()) }

// replay is one corpus.Replay on two engine workers (or as many as
// given), failing on any cell that did not pass. A nil cache makes
// every cell simulate.
func (c *corpusInst) replay(cache *resultcache.Cache, workers int) error {
	m, err := corpus.Replay(context.Background(), c.dir, corpus.ReplayOptions{Workers: workers, Cache: cache})
	if err != nil {
		return err
	}
	if !m.OK() {
		c.failed += m.Drift()
		return fmt.Errorf("corpus replay: %d of %d cells did not pass", m.Drift(), c.cells())
	}
	return nil
}

// op is one cold replay: no result cache, so every cell parses, builds,
// simulates, digests and is judged. The cache is left out on purpose —
// with it, three quarters of the op was the checkout's filesystem
// creating and deleting 210 files, at a price that depends on what was
// deleted in the last half minute (see precondition); the cache's own
// costs are probed in layers instead.
func (c *corpusInst) op(ph phase, _, i int) (time.Duration, uint64, error) {
	var tr *tracer
	if ph == phaseTraced {
		tr = c.tr
	}
	t0 := time.Now()
	op := tr.begin("op", 0, i)
	sp := tr.begin("corpus.Replay", op, i)
	err := c.replay(nil, 2)
	tr.end(sp)
	tr.end(op)
	return time.Since(t0), c.pkts, err
}

func (c *corpusInst) layers(r *tracedRun, m map[string]float64) error {
	cold := p50(r.plainMs)
	m["corpus.cells_per_s"] = float64(c.cells()) / (cold / 1e3)
	m["corpus.cells_failed"] = float64(c.failed)

	// The same op on one engine worker, against the two the workload uses.
	n := tracedOps
	if c.e.quick {
		n = 2
	}
	var w1 []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.replay(nil, 1); err != nil {
			return err
		}
		w1 = append(w1, float64(time.Since(t0))/1e6)
	}
	m["engine.workers2_speedup"] = p50(w1) / cold

	// A replay that fills a fresh cache, then one that is served from it:
	// zero simulations.
	for i := 0; i < n/4+1; i++ {
		cache, err := resultcache.Open(filepath.Join(c.caches, fmt.Sprintf("cache-%d", i)), 0)
		if err != nil {
			return err
		}
		if err := c.replay(cache, 2); err != nil {
			return err
		}
		sp := c.tr.begin("corpus.Replay(warm)", 0, i)
		err = c.replay(cache, 2)
		c.tr.end(sp)
		if err != nil {
			return err
		}
		if st := cache.Stats(); int(st.Puts) != c.cells() || int(st.Hits) != c.cells() {
			return fmt.Errorf("cached replays made %d puts and %d hits, want %d of each", st.Puts, st.Hits, c.cells())
		}
	}
	m["resultcache.warm_replay_ms"] = p50(durationsMs(c.tr.spans, "corpus.Replay(warm)"))

	return cellProbe(c.e, c.tr, c.cfgs, m)
}

// cellProbe drives, for every (scenario, profile) cell, the calls a
// cold replay or a served miss makes around one simulation — parse,
// build, run, render, Put — and the Get a hit makes instead, each under
// its own span, and reports the p50 of each call.
func cellProbe(e *env, tr *tracer, cfgs []config.Test, m map[string]float64) error {
	dir, err := os.MkdirTemp(e.work, "cellprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		return err
	}
	first := len(tr.spans)
	var bytes, cells float64
	for i, base := range cfgs {
		yaml, err := base.MarshalYAML()
		if err != nil {
			return err
		}
		for _, p := range corpus.AllProfiles() {
			cell := tr.begin("cell", 0, i)
			sp := tr.begin("config.Parse", cell, i)
			cfg, err := config.Parse(yaml)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("orchestrator.Build", cell, i)
			tb, err := orchestrator.Build(withProfile(cfg, p), cellOptions())
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("Testbed.Execute", cell, i)
			rep, err := tb.Execute()
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("resultcache.Render", cell, i)
			arts, err := resultcache.Render(rep)
			tr.end(sp)
			if err != nil {
				return err
			}
			key, err := resultcache.KeyFor(cfg, p, cellOptions())
			if err != nil {
				return err
			}
			sp = tr.begin("Cache.Put", cell, i)
			err = cache.Put(key, arts)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("Cache.Get", cell, i)
			got, ok := cache.Get(key)
			tr.end(sp)
			tr.end(cell)
			if !ok || len(got) != len(arts) {
				return fmt.Errorf("cache lost cell %s@%s right after Put", base.Name, p)
			}
			for _, a := range arts {
				bytes += float64(len(a))
			}
			cells++
		}
	}
	spans := tr.spans[first:]
	m["config.parse_us"] = p50(durationsMs(spans, "config.Parse")) * 1e3
	m["orchestrator.build_us"] = p50(durationsMs(spans, "orchestrator.Build")) * 1e3
	m["resultcache.render_ms"] = p50(durationsMs(spans, "resultcache.Render"))
	m["resultcache.put_ms"] = p50(durationsMs(spans, "Cache.Put"))
	m["resultcache.get_ms"] = p50(durationsMs(spans, "Cache.Get"))
	m["resultcache.artifact_kb"] = bytes / cells / 1024
	return nil
}
