package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestRingOrder: every key's preference walk names each replica exactly
// once, is deterministic, and the primary assignment actually spreads
// across the fleet.
func TestRingOrder(t *testing.T) {
	r := newRing([]string{"a", "b", "c"}, 64)
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("sha256:%064d", i)
		order := r.order(key)
		if len(order) != 3 {
			t.Fatalf("order(%q) = %v, want 3 distinct replicas", key, order)
		}
		seen := map[int]bool{}
		for _, idx := range order {
			if seen[idx] {
				t.Fatalf("order(%q) = %v repeats a replica", key, order)
			}
			seen[idx] = true
		}
		again := r.order(key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("order(%q) unstable: %v vs %v", key, order, again)
			}
		}
		counts[order[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("replica %d never primary over 300 keys: %v", i, counts)
		}
	}
}

// fleet is an in-process pair-of-replicas test fixture.
type fleet struct {
	svcs []*server.Server
	ts   []*httptest.Server
	gw   *Gateway
	gts  *httptest.Server
	cl   *client.Client
}

func newFleet(t *testing.T, n int, chaos []server.ChaosConfig, opt Options) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		so := server.Options{}
		if chaos != nil {
			so.Chaos = chaos[i]
		}
		svc := server.New(so)
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		f.svcs = append(f.svcs, svc)
		f.ts = append(f.ts, ts)
		opt.Replicas = append(opt.Replicas, ts.URL)
	}
	gw, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gw.probeRound() // accurate state without the background prober
	f.gw = gw
	f.gts = httptest.NewServer(gw.Handler())
	t.Cleanup(f.gts.Close)
	f.cl = client.New(f.gts.URL)
	f.cl.Retry = &resilience.Policy{MaxAttempts: 1} // the gateway must absorb faults
	return f
}

// srcOwnedBy finds a source whose routing key makes replica `want` the
// primary owner on the gateway's ring.
func (f *fleet) srcOwnedBy(t *testing.T, want int) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("int x%d; int main() { return %d; }", i, i%2)
		key, ok, _, err := server.RoutingKey(server.AnalyzeRequest{Source: src}, 16)
		if err != nil || !ok {
			t.Fatalf("RoutingKey: %v", err)
		}
		if f.gw.ring.order(key)[0] == want {
			return src
		}
	}
	t.Fatal("no source found with the desired primary")
	return ""
}

// TestGatewayRoutesAndCaches: repeated requests for one key land on one
// replica, the repeat is answered from that replica's cache, and exactly
// one replica ever ran the pipeline.
func TestGatewayRoutesAndCaches(t *testing.T) {
	f := newFleet(t, 2, nil, Options{})
	ctx := context.Background()

	src := f.srcOwnedBy(t, 0)
	first, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if first.Cached {
		t.Fatal("first analyze reported cached")
	}
	second, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze (repeat): %v", err)
	}
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("repeat: cached=%v id=%q want %q", second.Cached, second.ID, first.ID)
	}
	st := f.gw.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no gateway cache hit recorded: %+v", st)
	}
	// The sibling never ran the pipeline.
	m, err := client.New(f.ts[1].URL).Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if !strings.Contains(m, "fsamd_analyses_total 0") {
		t.Fatalf("sibling ran an analysis:\n%s", m)
	}
}

// TestGatewayFailover: a dead primary is retried, then the request fails
// over to the sibling; after enough probes the corpse is ejected and its
// breaker opens.
func TestGatewayFailover(t *testing.T) {
	f := newFleet(t, 2, nil, Options{
		Retry:            resilience.Policy{MaxAttempts: 2, Backoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: 0.01}},
		BreakerThreshold: 2,
	})
	ctx := context.Background()

	src := f.srcOwnedBy(t, 0)
	f.ts[0].Close() // kill the primary

	got, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze with dead primary: %v", err)
	}
	if got.ID == "" {
		t.Fatal("empty response through failover")
	}
	st := f.gw.Stats()
	if st.Retries == 0 || st.Failovers == 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}

	// Probes eject the corpse and trip its breaker.
	for i := 0; i < 4; i++ {
		f.gw.probeRound()
	}
	if s := f.gw.reps[0].State(); s != stateEjected {
		t.Fatalf("dead replica state = %s, want ejected", s)
	}
	if st := f.gw.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("breaker never opened: %+v", st)
	}
	// With the corpse ejected, requests route straight to the sibling.
	if _, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src + " "}); err != nil {
		t.Fatalf("Analyze after ejection: %v", err)
	}
}

// TestGatewayDrainFailover: SIGTERM semantics through the gateway — a
// request in flight on the draining replica completes, the drained replica
// leaves the rotation without being ejected, and new traffic fails over.
func TestGatewayDrainFailover(t *testing.T) {
	// Replica 0 gets 150ms of injected latency so a request is reliably
	// still in flight when the drain begins.
	chaos := []server.ChaosConfig{{Latency: 150 * time.Millisecond, LatencyP: 1}, {}}
	f := newFleet(t, 2, chaos, Options{})
	ctx := context.Background()

	// Launch an in-flight analysis of a fresh key owned by replica 0 …
	slow := f.srcOwnedBy(t, 0) + " // distinct"
	inflight := make(chan error, 1)
	go func() {
		_, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: slow})
		inflight <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the replica
	// … then drain replica 0 mid-request, as SIGTERM would.
	f.svcs[0].BeginDrain()
	f.gw.probeRound()

	if s := f.gw.reps[0].State(); s != stateDegraded || !f.gw.reps[0].draining.Load() {
		t.Fatalf("draining replica state = %s (draining=%v), want degraded+draining",
			s, f.gw.reps[0].draining.Load())
	}

	// The in-flight request completes despite the drain.
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}

	// New traffic for replica 0's keyspace fails over to the sibling.
	fresh := f.srcOwnedBy(t, 0) + " // after drain"
	got, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: fresh})
	if err != nil {
		t.Fatalf("Analyze during drain: %v", err)
	}
	if got.ID == "" {
		t.Fatal("empty response during drain")
	}
}

// TestGatewayHedge: a slow primary is raced against the sibling after the
// hedge delay, and the fast sibling's answer wins.
func TestGatewayHedge(t *testing.T) {
	chaos := []server.ChaosConfig{{Latency: 400 * time.Millisecond, LatencyP: 1}, {}}
	f := newFleet(t, 2, chaos, Options{})
	ctx := context.Background()

	src := f.srcOwnedBy(t, 0)
	t0 := time.Now()
	got, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got.ID == "" {
		t.Fatal("empty hedged response")
	}
	if d := time.Since(t0); d >= 400*time.Millisecond {
		t.Fatalf("hedge did not help: %s elapsed", d)
	}
	st := f.gw.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge not recorded: %+v", st)
	}
}

// TestGatewayHedgeLoserKeepsBreaker: the round trip the gateway cancels
// when a hedge wins is no evidence against the replica. A primary slowed
// by chaos loses more hedges than BreakerThreshold at once, and its
// breaker never opens.
func TestGatewayHedgeLoserKeepsBreaker(t *testing.T) {
	const threshold = 2
	chaos := []server.ChaosConfig{{Latency: 400 * time.Millisecond, LatencyP: 1}, {}}
	f := newFleet(t, 2, chaos, Options{BreakerThreshold: threshold})
	ctx := context.Background()

	errs := make(chan error, threshold+2)
	for i := 0; i < threshold+2; i++ {
		src := f.variantOwnedBy(t, 0, fmt.Sprintf("int l%d; int main() { return 0; }", i))
		go func() {
			_, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
			errs <- err
		}()
	}
	for i := 0; i < threshold+2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Analyze: %v", err)
		}
	}
	st := f.gw.Stats()
	if st.HedgeWins <= threshold {
		t.Fatalf("primary lost %d hedges, want more than %d: %+v", st.HedgeWins, threshold, st)
	}
	if st.BreakerOpens != 0 || f.gw.reps[0].breaker.State() != resilience.Closed {
		t.Fatalf("hedge losers opened the primary's breaker: %+v", st)
	}
}

// TestGatewayAnalyzeReplay: with one replica down, the analyze walk
// replays a round that ended in transient failures, so the survivor's
// first MaxAttempts answers of 503 never reach the client — for a plain
// and a base+patch analyze alike.
func TestGatewayAnalyzeReplay(t *testing.T) {
	const attempts = 3
	h := server.New(server.Options{}).Handler()
	var fails atomic.Int32 // 503 answers still to give
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" && fails.Add(-1) >= 0 {
			http.Error(w, "chaos: injected error", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()

	gw, err := New(Options{
		Replicas: []string{down.URL, flaky.URL},
		Retry:    resilience.Policy{MaxAttempts: attempts, Backoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: 0.01}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gw.probeRound()
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	cl := client.New(gts.URL)
	cl.Retry = &resilience.Policy{MaxAttempts: 1}
	ctx := context.Background()

	const src = "int x; int *p; int main() { p = &x; return 0; }"
	base, err := client.New(flaky.URL).Analyze(ctx, server.AnalyzeRequest{Name: "r.mc", Source: src})
	if err != nil {
		t.Fatalf("direct Analyze: %v", err)
	}
	for _, tc := range []struct {
		name string
		call func() (*server.AnalyzeResponse, error)
	}{
		{"plain", func() (*server.AnalyzeResponse, error) {
			return cl.Analyze(ctx, server.AnalyzeRequest{Name: "r.mc", Source: src + " // plain"})
		}},
		{"base+patch", func() (*server.AnalyzeResponse, error) {
			return cl.AnalyzeDelta(ctx, base.ProgKey, server.AnalyzeRequest{Name: "r.mc", Source: strings.Replace(src, "return 0", "return 1", 1)})
		}},
	} {
		fails.Store(attempts)
		got, err := tc.call()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.ID == "" || fails.Load() != -1 {
			t.Fatalf("%s: id %q with %d 503s unspent, want an answer on attempt %d", tc.name, got.ID, fails.Load()+1, attempts+1)
		}
	}
}

// TestGatewayQueryFailover: id-keyed queries walk the ring — a sibling
// holding the entry answers after the owner dies.
func TestGatewayQueryFailover(t *testing.T) {
	f := newFleet(t, 2, nil, Options{
		Retry: resilience.Policy{MaxAttempts: 2, Backoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: 0.01}},
	})
	ctx := context.Background()

	src := f.srcOwnedBy(t, 0)
	// Cache the analysis on BOTH replicas (the sibling via a direct call).
	got, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := client.New(f.ts[1].URL).Analyze(ctx, server.AnalyzeRequest{Source: src}); err != nil {
		t.Fatalf("direct Analyze: %v", err)
	}

	if _, err := f.cl.Diagnostics(ctx, got.ID, []string{"race"}); err != nil {
		t.Fatalf("race diagnostics via gateway: %v", err)
	}

	f.ts[0].Close()
	for i := 0; i < 4; i++ {
		f.gw.probeRound()
	}
	if _, err := f.cl.Diagnostics(ctx, got.ID, []string{"race"}); err != nil {
		t.Fatalf("race diagnostics after owner death: %v", err)
	}
}

// TestGatewayBaseAffinity: a base+patch request walks the ring on its
// base's program key until it finds the replica holding the base, which
// answers incrementally; a fleet-wide unknown base falls back to a fresh
// analysis instead of a client-visible 404.
func TestGatewayBaseAffinity(t *testing.T) {
	f := newFleet(t, 2, nil, Options{})
	ctx := context.Background()

	src := "int x; int *p; int main() { p = &x; return 0; }"
	first, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Name: "aff.mc", Source: src})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if first.ProgKey == "" {
		t.Skip("server does not report ProgKey")
	}
	edited := strings.Replace(src, "return 0", "return 1", 1)
	delta, err := f.cl.AnalyzeDelta(ctx, first.ProgKey, server.AnalyzeRequest{Name: "aff.mc", Source: edited})
	if err != nil {
		t.Fatalf("AnalyzeDelta via gateway: %v", err)
	}
	if delta.ID == "" || delta.Delta == nil {
		t.Fatalf("delta response: id %q, delta %+v; want an incremental answer", delta.ID, delta.Delta)
	}

	// Unknown base everywhere: the gateway strips it and analyzes fresh.
	fresh, err := f.cl.AnalyzeDelta(ctx, "sha256:feedfacefeedface", server.AnalyzeRequest{Name: "aff.mc", Source: edited + " "})
	if err != nil {
		t.Fatalf("AnalyzeDelta with bogus base: %v", err)
	}
	if fresh.ID == "" {
		t.Fatal("empty fallback response")
	}
}

// TestGatewayReadyz: the gateway is ready while any replica is, and says
// so honestly when the whole fleet is gone.
func TestGatewayReadyz(t *testing.T) {
	f := newFleet(t, 2, nil, Options{})

	resp, err := http.Get(f.gts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	f.ts[0].Close()
	f.ts[1].Close()
	for i := 0; i < 4; i++ {
		f.gw.probeRound()
	}
	resp, err = http.Get(f.gts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet = %d, want 503", resp.StatusCode)
	}

	// Liveness and metrics stay up regardless.
	resp, err = http.Get(f.gts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	resp.Body.Close()
	m, err := http.Get(f.gts.URL + "/metrics")
	if err != nil || m.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %v, %v", m, err)
	}
	m.Body.Close()
}
