package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// TestServerModeShipsConfig: every config flag given to `fsambench -server`
// reaches fsamd in the analyze body, not just the engine and the budgets.
func TestServerModeShipsConfig(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fsambench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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

	out, err := exec.Command(bin, "-server", ts.URL, "-requests", "1", "-scale", "1",
		"-engine", "tmod", "-memmodel", "tso", "-escapeprune", "off", "-steplimit", "7").CombinedOutput()
	if err != nil {
		t.Fatalf("fsambench -server: %v\n%s", err, out)
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
		for k, want := range map[string]any{"engine": "tmod", "memmodel": "tso", "escapeprune": "off", "steplimit": 7.0} {
			if got := req.Config[k]; got != want {
				t.Errorf("config.%s = %v, want %v (body %s)", k, got, want, b)
			}
		}
	}
}
