package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

const chaosSrc = "int x; int *p; int main() { p = &x; return 0; }"

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("latency=50ms:0.3,error=0.1,drop=0.05,seed=7")
	if err != nil {
		t.Fatalf("ParseChaos: %v", err)
	}
	if c.Latency != 50*time.Millisecond || c.LatencyP != 0.3 || c.ErrorP != 0.1 || c.DropP != 0.05 || c.Seed != 7 {
		t.Fatalf("ParseChaos = %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("Enabled() = false for a configured spec")
	}

	// Latency without an explicit probability defaults to 1.
	c, err = ParseChaos("latency=10ms")
	if err != nil || c.Latency != 10*time.Millisecond || c.LatencyP != 1 {
		t.Fatalf("ParseChaos(latency=10ms) = %+v, %v", c, err)
	}

	// Empty spec: chaos disabled.
	c, err = ParseChaos("")
	if err != nil || c.Enabled() {
		t.Fatalf("ParseChaos(\"\") = %+v, %v", c, err)
	}

	for _, bad := range []string{"latency", "latency=abc", "error=2", "drop=-1", "nope=1", "seed=x"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// TestChaosErrorInjection: with error=1 every API request answers 503
// "chaos: injected error", the faults are counted in the metrics, and the
// observability endpoints stay exempt.
func TestChaosErrorInjection(t *testing.T) {
	_, ts := newTestServer(t, Options{Chaos: ChaosConfig{ErrorP: 1}})
	defer ts.Close()

	status, _, er := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "int x;"}, "")
	if status != http.StatusServiceUnavailable || !strings.Contains(er.Error, "chaos") {
		t.Fatalf("chaos analyze: status %d, error %q", status, er.Error)
	}

	// Liveness, readiness and metrics are exempt from chaos.
	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &health)
	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `fsamd_chaos_injected_total{kind="error"}`); got < 1 {
		t.Fatalf("chaos error count = %g, want >= 1", got)
	}
}

// TestChaosLatencyInjection: latency=...:1 delays the request but still
// serves it correctly.
func TestChaosLatencyInjection(t *testing.T) {
	_, ts := newTestServer(t, Options{Chaos: ChaosConfig{Latency: 50 * time.Millisecond, LatencyP: 1}})
	defer ts.Close()

	t0 := time.Now()
	status, resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: chaosSrc}, "")
	if status != http.StatusOK || resp.ID == "" {
		t.Fatalf("latency-chaos analyze: status %d, resp %+v", status, resp)
	}
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Fatalf("request completed in %s, want >= the injected 50ms", d)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `fsamd_chaos_injected_total{kind="latency"}`); got < 1 {
		t.Fatalf("chaos latency count = %g, want >= 1", got)
	}
}

// TestChaosDropInjection: drop=1 severs the connection; the client sees a
// transport error, never an HTTP response.
func TestChaosDropInjection(t *testing.T) {
	_, ts := newTestServer(t, Options{Chaos: ChaosConfig{DropP: 1}})
	defer ts.Close()

	_, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"source":"int x;"}`))
	if err == nil {
		t.Fatal("drop-chaos request returned a response, want a transport error")
	}
	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `fsamd_chaos_injected_total{kind="drop"}`); got < 1 {
		t.Fatalf("chaos drop count = %g, want >= 1", got)
	}
}

// TestRetryAfterOnDrain: the drain shed carries a Retry-After hint.
func TestRetryAfterOnDrain(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	defer ts.Close()
	svc.BeginDrain()

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"source":"int x;"}`))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without a Retry-After hint")
	}
}

// TestRoutingKeyMatchesServerKey: the gateway-side key computation must
// agree with the key the daemon caches under, for direct sources and for
// generated benchmarks alike; base+patch requests are not keyable.
func TestRoutingKeyMatchesServerKey(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	defer ts.Close()

	for _, req := range []AnalyzeRequest{
		{Source: "int x; int *p; int main() { p = &x; return 0; }", Name: "k.mc"},
		{Benchmark: "word_count", Scale: 1},
	} {
		key, ok, _, err := RoutingKey(req, 16)
		if err != nil || !ok {
			t.Fatalf("RoutingKey(%+v) = %q, %v, %v", req, key, ok, err)
		}
		status, resp, _ := postAnalyze(t, ts.URL, req, "")
		if status != http.StatusOK {
			t.Fatalf("analyze: status %d", status)
		}
		if resp.ID != key {
			t.Fatalf("RoutingKey %q != served id %q", key, resp.ID)
		}
	}

	if _, ok, _, err := RoutingKey(AnalyzeRequest{Base: "abc", Source: "int x;"}, 16); ok || err != nil {
		t.Fatalf("base+patch RoutingKey: ok=%v err=%v, want not keyable", ok, err)
	}
}
