// Package resultcache is Lumina's content-addressed, on-disk result
// store. A run's verdicts and artifacts are a pure function of
// (scenario, NIC profile, run options, code version) — the corpus
// already exploits this by content-addressing scenarios and replaying
// against golden digests — so the tuple itself can key a cache:
// whoever computed a cell first (a corpus replay, a served submission,
// an experiment) stores the artifacts, and every later request for the
// same tuple is a disk read instead of a simulation.
//
// Layout under the cache root:
//
//	entries/<id>/entry.json      the key, plus per-artifact size+sha256
//	entries/<id>/<artifact>      the cached artifact bytes, verbatim
//	tmp/                         staging for entries being written
//
// <id> is the truncated SHA-256 of the canonical key rendering
// (Key.ID). Writes are atomic — a staged temp directory renamed into
// place — so a crashed writer leaves either the full entry or nothing.
// Reads verify every artifact against entry.json's recorded size and
// digest; any mismatch (corruption, truncation, a concurrent partial
// delete) demotes the entry to a miss and removes it, never an error:
// a cache that can fail a replay is worse than no cache.
//
// The cache is single-writer-process by design (the serve daemon owns
// its cache directory; CLI runs own theirs): the in-process mutex is
// the only lock. The entry directories are the whole store, so a crash
// loses nothing; recency is entry.json's mtime. Open builds the LRU
// table from one scan of entries/, taking each entry's size from its
// files and its recency from that mtime, which Get and a duplicate Put
// refresh.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Schema versions the on-disk layout; bump on incompatible changes.
// It is folded into every key ID, so a layout bump invalidates old
// entries instead of misreading them.
const Schema = "lumina-resultcache/1"

// Key is the four-dimensional identity of one cached result.
type Key struct {
	// Scenario is the canonical scenario content hash
	// (config.ContentHash — the same address corpus entries use).
	Scenario string `json:"scenario"`
	// Profile is the NIC model the scenario was retargeted to, or ""
	// for the scenario's native NICs.
	Profile string `json:"profile"`
	// Options is the orchestrator options fingerprint
	// (orchestrator.Options.Fingerprint).
	Options string `json:"options"`
	// Version is the code build stamp (version.Stamp).
	Version string `json:"version"`
}

// ID is the key's content address: the truncated SHA-256 of its
// canonical rendering. NUL separators keep adjacent dimensions from
// aliasing ("ab"+"c" vs "a"+"bc").
func (k Key) ID() string {
	h := sha256.New()
	for _, s := range []string{Schema, k.Scenario, k.Profile, k.Options, k.Version} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Stats is a point-in-time cache census plus lifetime op counters.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// entryMeta is the entry.json document.
type entryMeta struct {
	Schema    string             `json:"schema"`
	Key       Key                `json:"key"`
	Artifacts map[string]artMeta `json:"artifacts"`
}

type artMeta struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// indexEntry is one entry's LRU bookkeeping.
type indexEntry struct {
	Bytes  int64
	Access uint64 // logical clock, not wall time
}

// Cache is an open result cache rooted at a directory.
type Cache struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	seq     uint64
	entries map[string]indexEntry
	tmpSeq  uint64
	stats   Stats
}

const entryJSON = "entry.json"

// Open opens (creating if needed) the cache at dir. maxBytes caps the
// total artifact bytes retained — Put evicts least-recently-used
// entries to stay under it; <= 0 means unlimited. The LRU table is
// rebuilt from the entry directories on every Open, so the cache
// survives crashes and manual surgery.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, entries: map[string]indexEntry{}}
	if err := c.adopt(); err != nil {
		return nil, err
	}
	return c, nil
}

// adopt fills the LRU table from one scan of entries/ and sweeps stale
// staging directories. Entries take Access 1..n in order of entry.json's
// modification time, ties broken by ID, so the order is deterministic.
func (c *Cache) adopt() error {
	des, err := os.ReadDir(filepath.Join(c.dir, "entries"))
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	type adopted struct {
		id      string
		bytes   int64
		touched time.Time
	}
	var order []adopted
	for _, de := range des {
		if de.IsDir() {
			bytes, touched := statEntry(c.entryDir(de.Name()))
			order = append(order, adopted{de.Name(), bytes, touched})
		}
	}
	slices.SortFunc(order, func(a, b adopted) int {
		if n := a.touched.Compare(b.touched); n != 0 {
			return n
		}
		return strings.Compare(a.id, b.id)
	})
	for _, a := range order {
		c.seq++
		c.entries[a.id] = indexEntry{Bytes: a.bytes, Access: c.seq}
	}
	if tmp, err := os.ReadDir(filepath.Join(c.dir, "tmp")); err == nil {
		for _, de := range tmp {
			os.RemoveAll(filepath.Join(c.dir, "tmp", de.Name()))
		}
	}
	return nil
}

// statEntry returns the total size of an entry directory's regular files
// and entry.json's modification time (zero if it is missing, so such an
// entry evicts first; Get drops it anyway).
func statEntry(dir string) (bytes int64, touched time.Time) {
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if info, err := de.Info(); err == nil && de.Type().IsRegular() {
			bytes += info.Size()
			if de.Name() == entryJSON {
				touched = info.ModTime()
			}
		}
	}
	return bytes, touched
}

// touch records a use of entry id on disk, so its recency survives a
// reopen. Best effort: a failed touch costs only eviction order.
func (c *Cache) touch(id string) {
	os.Chtimes(filepath.Join(c.entryDir(id), entryJSON), time.Time{}, time.Now())
}

func (c *Cache) entryDir(id string) string {
	return filepath.Join(c.dir, "entries", id)
}

// Get returns the cached artifacts for k, or (nil, false) on a miss. A
// present-but-unverifiable entry — unreadable or schema-mismatched
// entry.json, a missing artifact, a size or digest mismatch — is
// removed and reported as a miss, never an error.
func (c *Cache) Get(k Key) (map[string][]byte, bool) {
	id := k.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	arts, err := c.readEntry(id, k)
	if err != nil {
		// Corruption demotes to a miss: drop the entry so the caller's
		// fresh run can repopulate it.
		c.dropLocked(id)
		c.stats.Misses++
		return nil, false
	}
	c.touch(id)
	c.seq++
	e.Access = c.seq
	c.entries[id] = e
	c.stats.Hits++
	return arts, true
}

// readEntry loads and verifies one entry.
func (c *Cache) readEntry(id string, k Key) (map[string][]byte, error) {
	dir := c.entryDir(id)
	data, err := os.ReadFile(filepath.Join(dir, entryJSON))
	if err != nil {
		return nil, err
	}
	var meta entryMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	if meta.Schema != Schema {
		return nil, fmt.Errorf("resultcache: entry %s: schema %q", id, meta.Schema)
	}
	if meta.Key != k {
		return nil, fmt.Errorf("resultcache: entry %s: key mismatch", id)
	}
	arts := make(map[string][]byte, len(meta.Artifacts))
	for name, am := range meta.Artifacts {
		if err := CheckArtifactName(name); err != nil {
			return nil, fmt.Errorf("resultcache: entry %s: %w", id, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if int64(len(b)) != am.Bytes {
			return nil, fmt.Errorf("resultcache: entry %s: %s truncated (%d of %d bytes)", id, name, len(b), am.Bytes)
		}
		sum := sha256.Sum256(b)
		if hex.EncodeToString(sum[:]) != am.SHA256 {
			return nil, fmt.Errorf("resultcache: entry %s: %s digest mismatch", id, name)
		}
		arts[name] = b
	}
	return arts, nil
}

// CheckArtifactName accepts only a plain file name: not empty, not "."
// or "..", no path separator, and not the entry's own entry.json. A name
// read from outside — an entry.json on disk, a daemon's run status — is
// checked before it is joined onto a directory, so it cannot name a file
// outside that directory.
func CheckArtifactName(name string) error {
	if name == "" || name == "." || name == ".." || name == entryJSON || filepath.Base(name) != name {
		return fmt.Errorf("resultcache: invalid artifact name %q", name)
	}
	return nil
}

// Put stores artifacts under k. The entry is staged in a temp directory
// and renamed into place atomically; if the key is already present
// (including a concurrent Put of the same key — results are pure, so
// both writers hold identical bytes) the existing entry wins and the
// staged copy is discarded. Artifact names must be plain file names.
func (c *Cache) Put(k Key, artifacts map[string][]byte) error {
	if len(artifacts) == 0 {
		return fmt.Errorf("resultcache: Put with no artifacts")
	}
	meta := entryMeta{Schema: Schema, Key: k, Artifacts: map[string]artMeta{}}
	var total int64
	for name, b := range artifacts {
		if err := CheckArtifactName(name); err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		meta.Artifacts[name] = artMeta{Bytes: int64(len(b)), SHA256: hex.EncodeToString(sum[:])}
		total += int64(len(b))
	}
	metaJS, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	metaJS = append(metaJS, '\n')
	total += int64(len(metaJS))

	id := k.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		// First writer wins; refresh recency so the duplicate Put still
		// counts as use.
		c.touch(id)
		c.seq++
		e.Access = c.seq
		c.entries[id] = e
		return nil
	}

	c.tmpSeq++
	stage := filepath.Join(c.dir, "tmp", fmt.Sprintf("%d-%d-%s", os.Getpid(), c.tmpSeq, id))
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			os.RemoveAll(stage)
		}
	}()
	for name, b := range artifacts {
		if err := os.WriteFile(filepath.Join(stage, name), b, 0o644); err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(stage, entryJSON), metaJS, 0o644); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(stage, c.entryDir(id)); err != nil {
		// Another process renamed the same entry first: its bytes are
		// identical by purity, so adopt it and discard ours.
		if _, statErr := os.Stat(filepath.Join(c.entryDir(id), entryJSON)); statErr != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
	}
	ok = true
	c.seq++
	c.entries[id] = indexEntry{Bytes: total, Access: c.seq}
	c.stats.Puts++
	c.evictLocked(id)
	return nil
}

// evictLocked removes least-recently-used entries until total bytes fit
// under the cap; the entry named keep (the one just put) is never
// evicted, so a cap smaller than a single entry still caches one.
func (c *Cache) evictLocked(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	for c.totalLocked() > c.maxBytes && len(c.entries) > 1 {
		victim, best := "", uint64(0)
		for id, e := range c.entries {
			if id == keep {
				continue
			}
			if victim == "" || e.Access < best {
				victim, best = id, e.Access
			}
		}
		if victim == "" {
			return
		}
		c.dropLocked(victim)
		c.stats.Evictions++
	}
}

func (c *Cache) totalLocked() int64 {
	var n int64
	for _, e := range c.entries {
		n += e.Bytes
	}
	return n
}

func (c *Cache) dropLocked(id string) {
	os.RemoveAll(c.entryDir(id))
	delete(c.entries, id)
}

// Stats returns the current census and lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.totalLocked()
	s.MaxBytes = c.maxBytes
	return s
}
