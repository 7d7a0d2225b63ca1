package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var prodcons = filepath.Join("..", "..", "testdata", "prodcons.mc")

// buildFsam builds the command into a temporary directory.
func buildFsam(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fsam")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStatsPrintsEveryPhase: -stats lists every phase that ran, in order,
// so a thread-modular run shows its compile, escape and tmod solve times
// (and the per-round / per-thread sub-phases).
func TestStatsPrintsEveryPhase(t *testing.T) {
	out, err := exec.Command(buildFsam(t), "-engine", "tmod", "-stats", prodcons).Output()
	if err != nil {
		t.Fatalf("fsam -engine tmod -stats: %v\n%s", err, out)
	}
	var line string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "time:") {
			line = l
		}
	}
	last := -1
	for _, phase := range []string{" compile=", " preanalysis=", " escape=", " tmod=", " tmod.round1="} {
		i := strings.Index(line, phase)
		if i < 0 || i < last {
			t.Fatalf("time line %q lacks %q after the phases before it", line, phase)
		}
		last = i
	}
}

// TestServerModeShipsConfig: every config flag given to `fsam -server`
// reaches fsamd in the analyze body, not just the engine and the budgets.
func TestServerModeShipsConfig(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies [][]byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"sha256:0","cached":false,"engine":"tmod","precision":"thread-modular-fs","exit_code":0,"stats":{}}`)
	}))
	defer ts.Close()

	out, err := exec.Command(buildFsam(t), "-server", ts.URL,
		"-engine", "tmod", "-memmodel", "tso", "-steplimit", "7", prodcons).CombinedOutput()
	if err != nil {
		t.Fatalf("fsam -server: %v\n%s", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) == 0 {
		t.Fatal("no analyze request reached the server")
	}
	for _, b := range bodies {
		var req struct {
			Config map[string]any `json:"config"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatalf("request body %s: %v", b, err)
		}
		for k, want := range map[string]any{"engine": "tmod", "memmodel": "tso", "steplimit": 7.0} {
			if got := req.Config[k]; got != want {
				t.Errorf("config.%s = %v, want %v (body %s)", k, got, want, b)
			}
		}
	}
}
