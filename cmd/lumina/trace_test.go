package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceTimelineIsPinned holds `lumina trace timeline` over the
// fixture's capture to the SHA-256 of its output: the rendering of a
// pcap as Chrome trace-event JSON must not move a byte.
func TestTraceTimelineIsPinned(t *testing.T) {
	const want = "3136c7b88f3d3ff656253abcfeb939122628ab18b3bb85dccbb3d1b9f15e689b"
	out := filepath.Join(t.TempDir(), "timeline.json")
	pcap := filepath.Join(fixture(t), "run", "trace.pcap")
	if err := quietly(func() error {
		return commands().exec("lumina", []string{"trace", "timeline", "-pcap", pcap, "-out", out})
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("trace timeline of %s: %d bytes, sha256 %s, want %s", pcap, len(b), got, want)
	}
}
