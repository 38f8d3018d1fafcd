package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(n int) Key {
	return Key{
		Scenario: fmt.Sprintf("scenario%04d", n),
		Profile:  "cx5",
		Options:  "deadline=600000000000;telemetry=0;lineage=1;int=0;coverage=0",
		Version:  "(devel)",
	}
}

func testArtifacts(n int) map[string][]byte {
	return map[string][]byte{
		"summary.json": []byte(fmt.Sprintf(`{"schema":"lumina-summary/1","n":%d}`+"\n", n)),
		ResultName:     []byte(fmt.Sprintf(`{"schema":%q,"n":%d}`+"\n", ResultSchema, n)),
	}
}

func TestKeyIDDiscriminatesEveryDimension(t *testing.T) {
	base := testKey(1)
	seen := map[string]Key{base.ID(): base}
	for _, k := range []Key{
		{Scenario: "other", Profile: base.Profile, Options: base.Options, Version: base.Version},
		{Scenario: base.Scenario, Profile: "e810", Options: base.Options, Version: base.Version},
		{Scenario: base.Scenario, Profile: base.Profile, Options: "deadline=1", Version: base.Version},
		{Scenario: base.Scenario, Profile: base.Profile, Options: base.Options, Version: "v1.2.3"},
	} {
		id := k.ID()
		if prev, dup := seen[id]; dup {
			t.Fatalf("key %+v collides with %+v on id %s", k, prev, id)
		}
		seen[id] = k
	}
	if base.ID() != testKey(1).ID() {
		t.Fatal("Key.ID is not deterministic")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	arts := testArtifacts(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k, arts); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if len(got) != len(arts) {
		t.Fatalf("got %d artifacts, want %d", len(got), len(arts))
	}
	for name, want := range arts {
		if !bytes.Equal(got[name], want) {
			t.Fatalf("artifact %s: got %q want %q", name, got[name], want)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionLRUUnderSmallCap(t *testing.T) {
	// Measure one entry's on-disk footprint, then cap the real cache at
	// two entries (entries are the same size: single-digit payloads).
	probe, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(testKey(0), testArtifacts(0)); err != nil {
		t.Fatal(err)
	}
	entryBytes := probe.Stats().Bytes
	cap := 2*entryBytes + entryBytes/2

	c, err := Open(t.TempDir(), cap)
	if err != nil {
		t.Fatal(err)
	}
	// Put 0, 1 (both fit), touch 0 so 1 is least-recently-used, then put
	// 2: the cap forces one eviction and LRU order names entry 1.
	for i := 0; i < 2; i++ {
		if err := c.Put(testKey(i), testArtifacts(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := c.Put(testKey(2), testArtifacts(2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte cap: %+v", cap, st)
	}
	if st.Bytes > cap {
		t.Fatalf("cache holds %d bytes, cap %d", st.Bytes, cap)
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get(testKey(2)); !ok {
		t.Fatal("just-put entry was evicted")
	}
}

func TestEvictionNeverRemovesJustPutEntry(t *testing.T) {
	// A cap smaller than one entry must still cache that entry.
	c, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1), testArtifacts(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("entry evicted immediately after Put under tiny cap")
	}
}

func TestConcurrentPutSameKey(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	arts := testArtifacts(7)
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.Put(k, arts)
			c.Get(k)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after concurrent puts")
	}
	if !bytes.Equal(got["summary.json"], arts["summary.json"]) {
		t.Fatal("artifact bytes corrupted by concurrent puts")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("concurrent Put of one key produced %d entries", st.Entries)
	}
	if _, ok := c.entries[k.ID()]; !ok || len(c.entries) != 1 {
		t.Fatalf("%d entries indexed, want only %s", len(c.entries), k.ID())
	}
}

func TestCorruptedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if err := c.Put(k, testArtifacts(1)); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the cached artifact: digest verification must fail.
	path := filepath.Join(dir, "entries", k.ID(), "summary.json")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupted entry returned as a hit")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("corrupted entry not dropped: %+v", st)
	}
	// The slot is usable again.
	if err := c.Put(k, testArtifacts(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("miss after repopulating a dropped entry")
	}
}

// TestEntryNamingAFileOutsideIsAMiss hand-writes an entry.json that
// lists a file outside the cache, with its true size and digest: the
// entry is corrupt, so Get must miss and drop it, never serve the file.
func TestEntryNamingAFileOutsideIsAMiss(t *testing.T) {
	root := t.TempDir()
	c, err := Open(filepath.Join(root, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(9)
	if err := c.Put(k, testArtifacts(9)); err != nil {
		t.Fatal(err)
	}
	secret := []byte("not an artifact\n")
	if err := os.WriteFile(filepath.Join(root, "secret.txt"), secret, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(secret)
	meta, err := json.Marshal(entryMeta{Schema: Schema, Key: k, Artifacts: map[string]artMeta{
		"../../../secret.txt": {Bytes: int64(len(secret)), SHA256: hex.EncodeToString(sum[:])},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "cache", "entries", k.ID(), entryJSON), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if arts, ok := c.Get(k); ok {
		t.Fatalf("entry naming ../../../secret.txt served as a hit: %q", arts)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("escaping entry not dropped as a miss: %+v", st)
	}
	if got, err := os.ReadFile(filepath.Join(root, "secret.txt")); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("the file outside the cache changed: %q, %v", got, err)
	}
}

func TestTruncatedArtifactIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(2)
	if err := c.Put(k, testArtifacts(2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "entries", k.ID(), ResultName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("truncated entry returned as a hit")
	}
}

func TestMissingArtifactFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	if err := c.Put(k, testArtifacts(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "entries", k.ID(), "summary.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("entry with a missing artifact returned as a hit")
	}
}

func TestReopenRebuildsFromDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testKey(i), testArtifacts(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the index: reopen must adopt the entry directories.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 3 {
		t.Fatalf("reopen adopted %d entries, want 3", st.Entries)
	}
	for i := 0; i < 3; i++ {
		got, ok := c2.Get(testKey(i))
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if want := testArtifacts(i)["summary.json"]; !bytes.Equal(got["summary.json"], want) {
			t.Fatalf("entry %d bytes differ after reopen", i)
		}
	}
	// And entries deleted behind the index's back disappear on reopen.
	if err := os.RemoveAll(filepath.Join(dir, "entries", testKey(0).ID())); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(testKey(0)); ok {
		t.Fatal("deleted entry resurrected by reopen")
	}
}

func TestPutRejectsBadArtifactNames(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", entryJSON, "a/b", "../escape"} {
		if err := c.Put(testKey(9), map[string][]byte{name: []byte("x")}); err == nil {
			t.Fatalf("Put accepted artifact name %q", name)
		}
	}
	if err := c.Put(testKey(9), nil); err == nil {
		t.Fatal("Put accepted empty artifact set")
	}
}
