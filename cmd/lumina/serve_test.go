package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/serve"
)

// TestArtifactNamesStayInTheOutDir points `lumina serve artifacts` at a
// daemon whose run status lists a name that climbs out of -out: the
// command must fail and write nothing, neither outside -out nor the
// well-named artifact beside it.
func TestArtifactNamesStayInTheOutDir(t *testing.T) {
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/artifacts/") {
			w.Write([]byte("{}\n"))
			return
		}
		json.NewEncoder(w).Encode(serve.RunStatus{ID: "run1", State: serve.StateDone, Artifacts: []string{"../escaped.json", "report.json"}})
	}))
	defer daemon.Close()

	root := t.TempDir()
	out := filepath.Join(root, "out")
	err := quietly(func() error {
		return commands().exec("lumina", []string{"serve", "artifacts", "-addr", strings.TrimPrefix(daemon.URL, "http://"), "-out", out, "run1"})
	})
	if err == nil || !strings.Contains(err.Error(), `invalid artifact name "../escaped.json"`) {
		t.Fatalf("err = %v, want the escaping name refused", err)
	}
	for _, path := range []string{filepath.Join(root, "escaped.json"), filepath.Join(out, "report.json")} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s was written (stat: %v)", path, err)
		}
	}
}
