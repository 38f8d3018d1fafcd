package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// TestOneArtifactTableEveryConsumerAgrees: Report.Artifacts() is the only
// description of what a run produces, so for every option mix the names
// it lists, the files WriteArtifacts creates and the keys Render returns
// (less result.json, plus the trace.pcap Render leaves out) are one set,
// and every shared name holds the same bytes on disk and in the map.
func TestOneArtifactTableEveryConsumerAgrees(t *testing.T) {
	const (
		rpt, pcap, met, tl = orchestrator.ReportName, orchestrator.TraceName, orchestrator.MetricsName, orchestrator.TimelineName
		sum, intj, cov     = orchestrator.SummaryName, orchestrator.INTName, orchestrator.CoverageName
	)
	cases := []struct {
		name     string
		opts     orchestrator.Options
		noMirror bool
		want     []string // table order
	}{
		{name: "lineage only", opts: orchestrator.Options{Lineage: true}, want: []string{rpt, pcap, sum}},
		{name: "+telemetry", opts: orchestrator.Options{Lineage: true, Telemetry: true}, want: []string{rpt, pcap, met, tl, sum}},
		{name: "+INT", opts: orchestrator.Options{Lineage: true, INT: true}, want: []string{rpt, pcap, sum, intj}},
		{name: "+coverage", opts: orchestrator.Options{Lineage: true, Coverage: true}, want: []string{rpt, pcap, sum, cov}},
		{name: "all", opts: orchestrator.Options{Lineage: true, Telemetry: true, INT: true, Coverage: true},
			want: []string{rpt, pcap, met, tl, sum, intj, cov}},
		// Mirroring off still reconstructs an (empty) trace, so the pcap
		// is a bare file header.
		{name: "mirroring disabled", opts: orchestrator.Options{Lineage: true}, noMirror: true, want: []string{rpt, pcap, sum}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Traffic.NumMsgsPerQP = 5
			cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 2, Type: "drop", Iter: 1}}
			cfg.Switch.Mirror = !tc.noMirror
			rep, err := orchestrator.Run(cfg, tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			var table []string
			for _, a := range rep.Artifacts() {
				table = append(table, a.Name)
			}
			if !reflect.DeepEqual(table, tc.want) {
				t.Fatalf("Artifacts() = %v, want %v", table, tc.want)
			}
			sort.Strings(table)

			dir := t.TempDir()
			if err := rep.WriteArtifacts(dir); err != nil {
				t.Fatal(err)
			}
			des, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, de := range des {
				files = append(files, de.Name()) // ReadDir sorts
			}
			if !reflect.DeepEqual(files, table) {
				t.Fatalf("WriteArtifacts created %v, table lists %v", files, table)
			}

			arts, built, err := RenderResult(rep)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := arts[ResultName]; !ok {
				t.Fatalf("Render returned no %s", ResultName)
			}
			if _, ok := arts[pcap]; ok {
				t.Fatalf("Render stored %s; cached sets leave it out", pcap)
			}
			rendered := []string{pcap}
			for name, data := range arts {
				if name == ResultName {
					continue
				}
				rendered = append(rendered, name)
				onDisk, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, data) {
					t.Errorf("%s: Render bytes differ from the file WriteArtifacts wrote", name)
				}
			}
			sort.Strings(rendered)
			if !reflect.DeepEqual(rendered, table) {
				t.Fatalf("Render keys (+%s) = %v, table lists %v", pcap, rendered, table)
			}

			// result.json carries the report's own judged form.
			res, err := ParseResult(arts[ResultName])
			if err != nil {
				t.Fatal(err)
			}
			outcome, err := rep.Outcome()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Outcome, outcome) || res.DurationNs != rep.DurationNs || res.IntegrityOK != rep.IntegrityOK {
				t.Fatalf("result.json = %+v, report outcome %+v", res, outcome)
			}
			if !reflect.DeepEqual(built, res) {
				t.Fatalf("RenderResult returned %+v, its result.json parses to %+v", built, res)
			}
		})
	}
}

// parentResultJSON is the result.json of testdata/parent-cache, an entry
// directory written by the commit before Result embedded
// orchestrator.Outcome (its Render + Put, build stamp "(devel)"). Cache
// directories outlive the code that wrote them, so the document layout —
// including the field order the embedding must preserve — is pinned here
// independently of the code.
const parentResultJSON = `{
  "schema": "lumina-resultcache-result/1",
  "verdicts": {
    "cnp": true,
    "gbn": true,
    "retrans": true,
    "silent-loss": true
  },
  "timed_out": false,
  "summary_sha256": "5e0654a4384d58664ac411dc8bb27043fa552feb6e97d47a4589e6a956f41784",
  "duration_ns": 2761,
  "integrity_ok": true
}
`

// parentID is testdata/parent-cache's one entry, the ID of parentKey.
const parentID = "6b413b3ecf5b231f"

func parentKey() Key {
	return Key{
		Scenario: "52380f835dfdf2fd",
		Profile:  "cx5",
		Options:  orchestrator.Options{Lineage: true}.Fingerprint(),
		Version:  "(devel)",
	}
}

func TestResultJSONFormatIsPinned(t *testing.T) {
	want := Result{
		Schema: ResultSchema,
		Outcome: orchestrator.Outcome{
			Verdicts:      map[string]bool{"cnp": true, "gbn": true, "retrans": true, "silent-loss": true},
			SummarySHA256: "5e0654a4384d58664ac411dc8bb27043fa552feb6e97d47a4589e6a956f41784",
		},
		DurationNs:  2761,
		IntegrityOK: true,
	}
	js, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(js) + "\n"; got != parentResultJSON {
		t.Fatalf("result.json layout moved:\n%s\nwant:\n%s", got, parentResultJSON)
	}

	got, err := ParseResult([]byte(parentResultJSON))
	if err != nil {
		t.Fatalf("a result.json written by the parent commit no longer parses: %v", err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("parsed %+v, want %+v", *got, want)
	}

	wrong := strings.Replace(parentResultJSON, ResultSchema, "lumina-resultcache-result/0", 1)
	if _, err := ParseResult([]byte(wrong)); err == nil {
		t.Fatal("ParseResult accepted a foreign schema")
	}
	if _, err := ParseResult([]byte(parentResultJSON[:40])); err == nil {
		t.Fatal("ParseResult accepted a truncated document")
	}
}

// TestParentWrittenEntryIsStillAVerifiedHit opens a copy of the parent
// commit's entry directory: Get must verify it (every recorded size and
// digest) and ParseResult must accept its result.json.
func TestParentWrittenEntryIsStillAVerifiedHit(t *testing.T) {
	// Get refreshes entry.json's mtime, so work on a copy.
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-cache", "entries", parentID)
	dst := filepath.Join(dir, "entries", parentID)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := parentKey()
	if key.ID() != parentID {
		t.Fatalf("key ID moved: %s, parent wrote %s", key.ID(), parentID)
	}
	arts, ok := c.Get(key)
	if !ok {
		t.Fatal("the parent's entry is no longer a hit")
	}
	if string(arts[ResultName]) != parentResultJSON {
		t.Fatalf("fixture result.json is not the pinned document:\n%s", arts[ResultName])
	}
	for _, name := range []string{orchestrator.ReportName, orchestrator.SummaryName} {
		if len(arts[name]) == 0 {
			t.Errorf("hit is missing %s", name)
		}
	}
}
