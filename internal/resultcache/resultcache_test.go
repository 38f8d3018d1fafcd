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
	"time"
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
	// The entry directories are the whole store: nothing else is written.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	if fmt.Sprint(names) != "[entries tmp]" {
		t.Fatalf("cache root holds %v, want only entries and tmp", names)
	}
	// An index.json left by an older build is never read.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, st2 := c.Stats(), c2.Stats(); st2.Entries != 3 || st2.Bytes != st.Bytes {
		t.Fatalf("reopen adopted %d entries of %d bytes, want 3 of %d", st2.Entries, st2.Bytes, st.Bytes)
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
	// And entries deleted behind the cache's back disappear on reopen.
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

// TestLRURecencySurvivesReopen: a Get refreshes entry.json's mtime, and
// Open orders entries by it, so a restarted cache still evicts the entry
// least recently used before the restart.
func TestLRURecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Put(testKey(i), testArtifacts(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Date both writes an hour back, 0 before 1, so the Get below is the
	// newest use however coarse the filesystem clock.
	written := time.Now().Add(-time.Hour)
	for i := 0; i < 2; i++ {
		meta := filepath.Join(dir, "entries", testKey(i).ID(), entryJSON)
		if err := os.Chtimes(meta, time.Time{}, written.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("entry 0 missing before reopen")
	}
	// Entries are the same size (single-digit payloads): cap at two and a half.
	c2, err := Open(dir, c.Stats().Bytes*5/4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(testKey(2), testArtifacts(2)); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Evictions != 1 {
		t.Fatalf("want one eviction: %+v", st)
	}
	if _, ok := c2.Get(testKey(1)); ok {
		t.Fatal("entry 1, least recently used before the reopen, survived eviction")
	}
	for _, i := range []int{0, 2} {
		if _, ok := c2.Get(testKey(i)); !ok {
			t.Fatalf("entry %d was evicted", i)
		}
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

// entryCase is one entry.json written beside one artifact, result.json,
// as the entry of parentKey.
type entryCase struct {
	name      string
	meta, art []byte
}

// entryCases spells the deterministic half of FuzzCacheEntry: entries Get
// must serve, and entries it must miss and remove.
func entryCases(t testing.TB) (valid, invalid []entryCase) {
	dir := filepath.Join("testdata", "parent-cache", "entries", parentID)
	meta, err := os.ReadFile(filepath.Join(dir, entryJSON))
	if err != nil {
		t.Fatal(err)
	}
	art, err := os.ReadFile(filepath.Join(dir, ResultName))
	if err != nil {
		t.Fatal(err)
	}
	var parent entryMeta
	if err := json.Unmarshal(meta, &parent); err != nil {
		t.Fatal(err)
	}
	// alone is the parent's entry.json listing only the artifact beside
	// it, after edit.
	alone := func(edit func(*entryMeta)) []byte {
		m := entryMeta{Schema: parent.Schema, Key: parent.Key, Artifacts: map[string]artMeta{ResultName: parent.Artifacts[ResultName]}}
		edit(&m)
		js, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	same := func(*entryMeta) {}
	flipped := bytes.Clone(art)
	flipped[len(flipped)/2] ^= 1
	valid = []entryCase{
		{"parent entry, result.json alone", alone(same), art},
		{"no artifacts listed", alone(func(m *entryMeta) { m.Artifacts = nil }), art},
	}
	invalid = []entryCase{
		{"parent entry, report.json and summary.json absent", meta, art},
		{"parent entry cut in half", meta[:len(meta)/2], art},
		{"parent entry without its closing brace", meta[:len(meta)-2], art},
		{"empty entry.json", []byte{}, art},
		{"{}", []byte("{}"), art},
		{"foreign schema", alone(func(m *entryMeta) { m.Schema = "lumina-resultcache/0" }), art},
		{"another key", alone(func(m *entryMeta) { m.Key.Profile = "e810" }), art},
		{"artifact named ../x", alone(func(m *entryMeta) { m.Artifacts = map[string]artMeta{"../x": m.Artifacts[ResultName]} }), art},
		{"artifact named entry.json", alone(func(m *entryMeta) { m.Artifacts = map[string]artMeta{entryJSON: m.Artifacts[ResultName]} }), art},
		{"artifact one byte short", alone(same), art[:len(art)-1]},
		{"artifact with a flipped bit", alone(same), flipped},
	}
	return valid, invalid
}

func TestCacheEntryValidAndInvalid(t *testing.T) {
	valid, invalid := entryCases(t)
	for _, tc := range valid {
		t.Run(tc.name, func(t *testing.T) {
			if !checkEntry(t, tc.meta, tc.art) {
				t.Fatal("a valid entry missed")
			}
		})
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			if checkEntry(t, tc.meta, tc.art) {
				t.Fatal("an invalid entry hit")
			}
		})
	}
}

// FuzzCacheEntry writes each input as one entry's entry.json beside one
// artifact, then opens the cache and Gets the entry's key.
func FuzzCacheEntry(f *testing.F) {
	valid, invalid := entryCases(f)
	for _, tc := range append(valid, invalid...) {
		f.Add(tc.meta, tc.art)
	}
	f.Fuzz(func(t *testing.T, meta, art []byte) {
		checkEntry(t, meta, art)
	})
}

// checkEntry writes meta as the entry.json of parentKey's entry beside
// art as its result.json, opens the cache and Gets the key. A hit must be
// exactly what verifiedEntry allows and return the bytes on disk;
// anything else must miss and remove the entry directory. On a hit,
// ParseResult of result.json must return, not panic. checkEntry reports
// whether Get hit.
func checkEntry(t *testing.T, meta, art []byte) bool {
	dir := t.TempDir()
	entry := filepath.Join(dir, "entries", parentID)
	if err := os.MkdirAll(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{entryJSON: meta, ResultName: art} {
		if err := os.WriteFile(filepath.Join(entry, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	arts, hit := c.Get(parentKey())
	want, verifies := verifiedEntry(meta, art)
	if hit != verifies {
		t.Fatalf("Get hit = %v, verification says %v", hit, verifies)
	}
	if _, err := os.Stat(entry); hit != (err == nil) {
		t.Fatalf("Get hit = %v, entry directory: %v", hit, err)
	}
	if len(arts) != len(want) {
		t.Fatalf("hit returned %d artifacts, entry.json lists %d", len(arts), len(want))
	}
	for name, b := range want {
		if got, ok := arts[name]; !ok || !bytes.Equal(got, b) {
			t.Fatalf("%s: hit returned %q, disk holds %q", name, got, b)
		}
	}
	if res, ok := arts[ResultName]; ok {
		ParseResult(res)
	}
	return hit
}

// verifiedEntry is the rule Get follows, spelled without the cache: if
// entry.json decodes with this schema and parentKey, and every artifact it
// lists is result.json with art's size and digest, the artifacts it lists
// with their bytes.
func verifiedEntry(meta, art []byte) (map[string][]byte, bool) {
	var m entryMeta
	if json.Unmarshal(meta, &m) != nil || m.Schema != Schema || m.Key != parentKey() {
		return nil, false
	}
	sum := sha256.Sum256(art)
	arts := map[string][]byte{}
	for name, am := range m.Artifacts {
		if name != ResultName || am.Bytes != int64(len(art)) || am.SHA256 != hex.EncodeToString(sum[:]) {
			return nil, false
		}
		arts[name] = art
	}
	return arts, true
}
