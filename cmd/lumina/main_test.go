package main

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's `lumina help` block")

// reexecEnv makes the test binary run main instead of the tests, so a
// test can observe the real exit status and stderr.
const reexecEnv = "LUMINA_TEST_RUN_MAIN"

var (
	fixtureOnce sync.Once
	fixtureDir  string
	fixtureErr  error
)

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main()
	}
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}

// fixture returns a directory holding run/, the `lumina run -int
// -coverage -out` tree of configs/listing2.yaml, and frontier.json, the
// spec profile's corpus frontier. It is built once per test binary.
func fixture(t *testing.T) string {
	t.Helper()
	fixtureOnce.Do(func() {
		if fixtureDir, fixtureErr = os.MkdirTemp("", "lumina-cmd-test-"); fixtureErr != nil {
			return
		}
		fixtureErr = quietly(func() error {
			run := filepath.Join(fixtureDir, "run")
			if err := commands().exec("lumina", []string{"run", "-int", "-coverage", "-out", run, "../../configs/listing2.yaml"}); err != nil {
				return err
			}
			return commands().exec("lumina", []string{"corpus", "coverage", "-corpus", "../../corpus",
				"-profiles", "spec", "-workers", "2", "-out", filepath.Join(fixtureDir, "frontier.json")})
		})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDir
}

// quietly runs fn with stdout discarded.
func quietly(fn func() error) error {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	return fn()
}

// TestArtifactReadersRefuseForeignDocuments gives every artifact reader
// every document it might be pointed at by mistake: each must accept its
// own schema and return an error, never panic or print an empty answer,
// for everything else.
func TestArtifactReadersRefuseForeignDocuments(t *testing.T) {
	dir := fixture(t)
	run := filepath.Join(dir, "run")
	summary, err := os.ReadFile(filepath.Join(run, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"report.json":    filepath.Join(run, "report.json"),
		"metrics.json":   filepath.Join(run, "metrics.json"),
		"summary.json":   filepath.Join(run, "summary.json"),
		"int.json":       filepath.Join(run, "int.json"),
		"coverage.json":  filepath.Join(run, "coverage.json"),
		"frontier.json":  filepath.Join(dir, "frontier.json"),
		"empty object":   filepath.Join(t.TempDir(), "empty.json"),
		"truncated JSON": filepath.Join(t.TempDir(), "truncated.json"),
	}
	if err := os.WriteFile(docs["empty object"], []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docs["truncated JSON"], summary[:len(summary)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		args    []string
		accepts []string
	}{
		{[]string{"trace", "explain", "-summary"}, []string{"summary.json"}},
		{[]string{"trace", "hops", "-int"}, []string{"int.json"}},
		{[]string{"trace", "coverage", "-a"}, []string{"coverage.json", "frontier.json"}},
	}
	for _, r := range readers {
		for name, path := range docs {
			args := append(append([]string{}, r.args...), path)
			var err error
			if qerr := quietly(func() error { err = commands().exec("lumina", args); return nil }); qerr != nil {
				t.Fatal(qerr)
			}
			accept := false
			for _, a := range r.accepts {
				accept = accept || a == name
			}
			switch {
			case accept && err != nil:
				t.Errorf("%s %s: %v", strings.Join(r.args, " "), name, err)
			case !accept && err == nil:
				t.Errorf("%s accepted %s", strings.Join(r.args, " "), name)
			case !accept && errors.As(err, new(usageError)):
				t.Errorf("%s %s: usage error %v, want a failure", strings.Join(r.args, " "), name, err)
			case !accept && !strings.Contains(err.Error(), path):
				t.Errorf("%s %s: error %q does not name the file", strings.Join(r.args, " "), name, err)
			}
		}
	}
	// A schema mismatch names what was found and what was expected.
	err = commands().exec("lumina", []string{"trace", "explain", "-summary", docs["int.json"]})
	if err == nil || !strings.Contains(err.Error(), `schema "lumina-int/1", expected "lumina-summary/1"`) {
		t.Errorf("explain -summary int.json: %v", err)
	}
}

// runMain runs the binary's main with args and returns its exit status,
// stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	run := filepath.Join(fixture(t), "run")
	var help bytes.Buffer
	commands().help(&help, "lumina")
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string // substrings
	}{
		{nil, 2, "", "lumina: missing subcommand\n" + help.String()},
		{[]string{"bogus"}, 2, "", `lumina: unknown subcommand "bogus"`},
		{[]string{"corpus"}, 2, "", "lumina corpus: missing subcommand\nlumina corpus add"},
		{[]string{"trace", "bogus"}, 2, "", `lumina trace: unknown subcommand "bogus"`},
		{[]string{"run"}, 2, "", `lumina run: want "cfg.yaml", got 0 argument(s)`},
		{[]string{"run", "-config", "../../configs/listing2.yaml"}, 2, "", "flag provided but not defined: -config"},
		{[]string{"serve", "status", "a", "b"}, 2, "", `want "runID", got 2 argument(s)`},
		{[]string{"fuzz", "-target", "nope"}, 2, "", `unknown target "nope"`},
		{[]string{"corpus", "replay", "-transport", "xrc"}, 2, "", "known transports: rc, uc, ud"},
		{[]string{"trace", "explain", "-summary", filepath.Join(run, "report.json")}, 1, "", "lumina: " + filepath.Join(run, "report.json")},
		{[]string{"trace", "explain", "-run", run, "-psn", "999999"}, 1, "", "no causal chain matches qp=any psn=999999"},
		{[]string{"run", "-h"}, 0, "", "-transport rc|uc|ud"},
		{[]string{"-version"}, 0, "lumina ", ""},
		{[]string{"help"}, 0, help.String(), ""},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("lumina %q: exit %d, stdout %q, stderr %q; want exit %d, stdout ~%q, stderr ~%q",
				tc.args, code, stdout, stderr, tc.code, tc.stdout, tc.stderr)
		}
	}
}

const (
	helpBegin = "<!-- lumina help: generated; go test ./cmd/lumina -run TestREADMEUsageIsCurrent -update -->\n"
	helpEnd   = "<!-- end lumina help -->\n"
)

// TestREADMEUsageIsCurrent pins README's command list to `lumina help`.
func TestREADMEUsageIsCurrent(t *testing.T) {
	const path = "../../README.md"
	readme, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(readme, []byte(helpBegin))
	end := bytes.Index(readme, []byte(helpEnd))
	if begin < 0 || end < begin {
		t.Fatalf("README.md lacks the %q ... %q markers", helpBegin, helpEnd)
	}
	var want bytes.Buffer
	want.WriteString("```\n$ lumina help\n")
	commands().help(&want, "lumina")
	want.WriteString("```\n")
	got := readme[begin+len(helpBegin) : end]
	if bytes.Equal(got, want.Bytes()) {
		return
	}
	if !*update {
		t.Fatalf("README.md's command list is stale; rerun with -update. got:\n%s\nwant:\n%s", got, want.Bytes())
	}
	out := append(append(append([]byte{}, readme[:begin+len(helpBegin)]...), want.Bytes()...), readme[end:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNoDeletedCommandNames fails on any mention of the five binaries
// that became subcommands. Schema names (a slash after the name) stay
// legal, and so does bench/, whose files the repository benchmark pins.
// Of the markdown files at the root only the user-facing documents are
// checked; the others are history and planning notes.
func TestNoDeletedCommandNames(t *testing.T) {
	deleted := regexp.MustCompile(`lumina-(bench|corpus|fuzz|serve|trace)\b[^/-]`)
	skipDirs := map[string]bool{".git": true, "bench": true, "results": true, "bin": true}
	userDocs := map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}
	skipFile := func(rel string) bool {
		return filepath.Dir(rel) == "." && strings.HasSuffix(rel, ".md") && !userDocs[rel]
	}
	root := "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		switch {
		case d.IsDir() && skipDirs[rel]:
			return filepath.SkipDir
		case d.IsDir() || skipFile(rel):
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := deleted.FindString(line + "\n"); m != "" {
				t.Errorf("%s:%d names a deleted command: %s", rel, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
