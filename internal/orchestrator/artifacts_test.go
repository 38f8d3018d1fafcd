package orchestrator

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// countingFile stands in for an artifact's file: it keeps what it is
// given and counts how many writes that took.
type countingFile struct {
	bytes.Buffer
	writes   int
	failWith error // when set, every Write fails with it
	closed   bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failWith != nil {
		return 0, f.failWith
	}
	return f.Buffer.Write(p)
}

func (f *countingFile) Close() error { f.closed = true; return nil }

// TestWriteArtifactsBuffersItsWrites: the renderers emit a packet record
// or a timeline event at a time, WriteArtifacts turns that into writes of
// tens of KiB — fewer than one per 32 KiB over the whole artifact set —
// and what arrives is byte for byte what lands in real files.
func TestWriteArtifactsBuffersItsWrites(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.NumMsgsPerQP, cfg.Traffic.MessageSize = 24, 65536
	rep, err := Run(cfg, allObservers())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*countingFile{}
	err = rep.writeArtifacts("dir", func(path string) (io.WriteCloser, error) {
		f := &countingFile{}
		files[path] = f
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	onDisk := writtenTree(t, rep)
	if len(files) != len(onDisk) || len(files) != 7 {
		t.Fatalf("%d artifacts through the seam, %d on disk, want 7", len(files), len(onDisk))
	}
	writes, total := 0, 0
	for name, want := range onDisk {
		f := files[filepath.Join("dir", name)]
		if f == nil || !f.closed {
			t.Fatalf("%s: not created, or left open", name)
		}
		if !bytes.Equal(f.Bytes(), want) {
			t.Errorf("%s: the bytes through the seam differ from the file's", name)
		}
		writes += f.writes
		total += f.Len()
	}
	if total < 2<<20 {
		t.Fatalf("artifact set is only %d bytes; the scenario no longer exercises the buffer", total)
	}
	if writes*(32<<10) >= total {
		t.Fatalf("%d writes for %d bytes: want fewer than one per 32 KiB", writes, total)
	}
}

// TestWriteFileWrapsRenderAndFlushErrors: whichever step loses an
// artifact — its renderer, or the flush that pushes the buffered tail
// into the file — the error names the artifact's path, keeps its cause,
// and the file is closed.
func TestWriteFileWrapsRenderAndFlushErrors(t *testing.T) {
	boom := errors.New("boom")
	small := func(w io.Writer) error { _, err := w.Write([]byte("fits the buffer")); return err }
	var f *countingFile
	create := func(failWith error) fileCreator {
		return func(string) (io.WriteCloser, error) {
			f = &countingFile{failWith: failWith}
			return f, nil
		}
	}
	bw := bufio.NewWriterSize(nil, artifactBufSize)

	err := writeFile(bw, create(nil), "out/timeline.json", func(io.Writer) error { return boom })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "out/timeline.json") || !f.closed {
		t.Fatalf("render error came back as %v (file closed: %v)", err, f.closed)
	}
	// The renderer succeeds — its output sits in the buffer — and the
	// file refuses it at the flush.
	err = writeFile(bw, create(boom), "out/metrics.json", small)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "out/metrics.json") || !f.closed || f.writes != 1 {
		t.Fatalf("flush error came back as %v (file closed: %v, writes: %d)", err, f.closed, f.writes)
	}
	// The buffer is reused by the next artifact and must not stay poisoned.
	if err := writeFile(bw, create(nil), "out/next.json", small); err != nil || f.String() != "fits the buffer" {
		t.Fatalf("artifact after a failed one: err %v, wrote %q", err, f.String())
	}
	if err := writeFile(bw, func(string) (io.WriteCloser, error) { return nil, boom }, "out/x", small); !errors.Is(err, boom) {
		t.Fatalf("create error came back as %v", err)
	}

	// The same through a real file that cannot take a byte.
	if _, statErr := os.Stat("/dev/full"); statErr != nil {
		t.Skip("no /dev/full here; the seam above covered the flush error")
	}
	rep, err := Run(baseCfg(), allObservers())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricsName, TimelineName} { // one flushed at the end, one mid-render
		err := rep.WriteArtifact(name, "/dev/full")
		if !errors.Is(err, syscall.ENOSPC) || !strings.HasPrefix(err.Error(), "/dev/full: ") {
			t.Fatalf("writing %s to /dev/full: %v", name, err)
		}
	}
}
