package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/exitcode"
)

// fig1aSrc is the paper's Fig. 1a program: tiny, multithreaded, and with a
// known flow-sensitive answer pt(c) = {y, z}.
const fig1aSrc = `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void foo(void *arg) {
	*p = q;
}
int main() {
	p = &x; q = &y; r = &z;
	thread_t t;
	t = spawn(foo, NULL);
	*p = r;
	c = *p;
	return 0;
}
`

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(opt)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postAnalyze submits req (with extra query string, e.g. "membudget=1") and
// decodes the response body into either an AnalyzeResponse or an
// ErrorResponse depending on the status.
func postAnalyze(t *testing.T, base string, req AnalyzeRequest, query string) (int, AnalyzeResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	u := base + "/v1/analyze"
	if query != "" {
		u += "?" + query
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/analyze: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var ok AnalyzeResponse
	var bad ErrorResponse
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decode AnalyzeResponse (%d): %v\n%s", resp.StatusCode, err, raw)
		}
	} else {
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatalf("decode ErrorResponse (%d): %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode, ok, bad
}

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(raw)
}

// metricValue extracts the value of an exact sample line (name plus label
// set, e.g. `fsamd_analyses_total`).
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, found := strings.CutPrefix(line, sample+" "); found {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse %q value %q: %v", sample, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric sample %q not found in exposition:\n%s", sample, text)
	return 0
}

// TestAnalyzeCacheHit is the acceptance path: a second identical POST
// /v1/analyze is served from the cache — the hit counter increments and no
// new pipeline run happens.
func TestAnalyzeCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "fig1a.mc", Source: fig1aSrc}

	status, first, _ := postAnalyze(t, ts.URL, req, "")
	if status != http.StatusOK {
		t.Fatalf("first analyze: status %d", status)
	}
	if first.Cached {
		t.Fatalf("first analyze reported cached=true")
	}
	if !strings.HasPrefix(first.ID, "sha256:") {
		t.Fatalf("id %q is not a content address", first.ID)
	}
	if first.Precision != fsam.PrecisionSparseFS.String() || first.ExitCode != exitcode.OK {
		t.Fatalf("first analyze: precision=%q exit=%d, want sparse-fs/0", first.Precision, first.ExitCode)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, "fsamd_analyses_total"); got != 1 {
		t.Fatalf("after first analyze: fsamd_analyses_total = %g, want 1", got)
	}
	if got := metricValue(t, m, "fsamd_cache_misses_total"); got != 1 {
		t.Fatalf("after first analyze: fsamd_cache_misses_total = %g, want 1", got)
	}

	status, second, _ := postAnalyze(t, ts.URL, req, "")
	if status != http.StatusOK {
		t.Fatalf("second analyze: status %d", status)
	}
	if !second.Cached {
		t.Fatalf("second identical analyze was not a cache hit")
	}
	if second.ID != first.ID {
		t.Fatalf("cache hit changed the id: %q vs %q", second.ID, first.ID)
	}

	m = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, "fsamd_cache_hits_total"); got != 1 {
		t.Fatalf("after second analyze: fsamd_cache_hits_total = %g, want 1", got)
	}
	if got := metricValue(t, m, "fsamd_analyses_total"); got != 1 {
		t.Fatalf("second identical analyze ran the pipeline again (fsamd_analyses_total = %g)", got)
	}
	if got := metricValue(t, m, "fsamd_cache_hit_ratio"); got != 0.5 {
		t.Fatalf("fsamd_cache_hit_ratio = %g, want 0.5", got)
	}

	// The exposition carries the request counters and the latency histogram.
	for _, want := range []string{
		`fsamd_requests_total{path="/v1/analyze",code="200"} 2`,
		`fsamd_request_duration_seconds_bucket{le="+Inf"}`,
		"fsamd_request_duration_seconds_sum",
		"fsamd_request_duration_seconds_count",
		`fsamd_precision_total{tier="sparse-fs"} 1`,
		`fsamd_phase_seconds_total{phase="sparse"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics exposition is missing %q", want)
		}
	}
}

// TestAnalyzeOverBudgetDegrades: an over-budget request answers with a
// degraded tier — HTTP 200 carrying the exit-code convention — never a 5xx.
func TestAnalyzeOverBudgetDegrades(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "fig1a.mc", Source: fig1aSrc}

	status, resp, _ := postAnalyze(t, ts.URL, req, "membudget=1")
	if status != http.StatusOK {
		t.Fatalf("over-budget analyze: status %d, want 200", status)
	}
	if resp.ExitCode != exitcode.DegradedAndersen {
		t.Fatalf("over-budget analyze: exit_code %d, want %d", resp.ExitCode, exitcode.DegradedAndersen)
	}
	if resp.Precision != fsam.PrecisionAndersenOnly.String() {
		t.Fatalf("over-budget analyze: precision %q, want andersen-only", resp.Precision)
	}
	if resp.Degraded == "" {
		t.Fatalf("over-budget analyze: empty degraded reason")
	}
	if resp.ID == "" {
		t.Fatalf("over-budget analyze: no id")
	}

	// The budget is part of the content address: the same source without the
	// budget is a different result, not a hit on the degraded one.
	status2, full, _ := postAnalyze(t, ts.URL, req, "")
	if status2 != http.StatusOK || full.Cached {
		t.Fatalf("unbudgeted analyze after budgeted one: status=%d cached=%v", status2, full.Cached)
	}
	if full.ID == resp.ID {
		t.Fatalf("budgeted and unbudgeted requests share a content address")
	}

	// The race checker needs full precision; on the degraded result the
	// diagnostics endpoint still answers 200 and names the tier in the
	// checker's skip reason.
	var dr DiagnosticsResponse
	getJSON(t, ts.URL+"/v1/diagnostics?id="+resp.ID+"&checkers=race", http.StatusOK, &dr)
	if reason := dr.Skipped["race"]; !strings.Contains(reason, fsam.PrecisionAndersenOnly.String()) {
		t.Fatalf("race on degraded analysis: skip reason %q, want the %s tier named",
			reason, fsam.PrecisionAndersenOnly)
	}
	if dr.Count != 0 || dr.Precision != fsam.PrecisionAndersenOnly.String() {
		t.Fatalf("race on degraded analysis: count %d precision %q", dr.Count, dr.Precision)
	}
}

// TestQueryEndpoints drives pointsto and the race and leak checkers'
// diagnostics against a cached analysis.
func TestQueryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, ar, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "fig1a.mc", Source: fig1aSrc}, "")
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}

	var pt PointsToResponse
	getJSON(t, ts.URL+"/v1/pointsto?id="+ar.ID+"&global=c", http.StatusOK, &pt)
	want := map[string]bool{"y": true, "z": true}
	if len(pt.PointsTo) != 2 || !want[pt.PointsTo[0]] || !want[pt.PointsTo[1]] {
		t.Fatalf("pt(c) = %v, want {y, z}", pt.PointsTo)
	}
	if pt.Precision != fsam.PrecisionSparseFS.String() {
		t.Fatalf("pointsto precision %q", pt.Precision)
	}

	var races DiagnosticsResponse
	getJSON(t, ts.URL+"/v1/diagnostics?id="+ar.ID+"&checkers=race", http.StatusOK, &races)
	if races.Count != len(races.Diagnostics) {
		t.Fatalf("races count %d != %d diagnostics", races.Count, len(races.Diagnostics))
	}
	if reason, ok := races.Skipped["race"]; ok {
		t.Fatalf("race checker skipped on a full-precision entry: %s", reason)
	}

	var leaks DiagnosticsResponse
	getJSON(t, ts.URL+"/v1/diagnostics?id="+ar.ID+"&checkers=leak", http.StatusOK, &leaks)
	if leaks.ID != ar.ID {
		t.Fatalf("leaks id %q", leaks.ID)
	}

	// Error paths.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/pointsto?global=c", http.StatusBadRequest},                      // missing id
		{"/v1/pointsto?id=sha256:beef&global=c", http.StatusNotFound},         // unknown id
		{"/v1/pointsto?id=" + ar.ID, http.StatusBadRequest},                   // missing global
		{"/v1/pointsto?id=" + ar.ID + "&global=nosuch", http.StatusNotFound},  // unknown global
		{"/v1/diagnostics?id=sha256:beef&checkers=race", http.StatusNotFound}, // unknown id
		{"/v1/diagnostics?checkers=race", http.StatusBadRequest},              // missing id
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d\n%s", url, resp.StatusCode, wantStatus, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestAnalyzeRequestValidation covers the 400/404/405 request-shape errors.
func TestAnalyzeRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxScale: 4})

	cases := []struct {
		name  string
		req   AnalyzeRequest
		query string
		want  int
	}{
		{"both inputs", AnalyzeRequest{Source: "int x;", Benchmark: "word_count"}, "", http.StatusBadRequest},
		{"no inputs", AnalyzeRequest{}, "", http.StatusBadRequest},
		{"unknown benchmark", AnalyzeRequest{Benchmark: "no_such_bench"}, "", http.StatusNotFound},
		{"scale over cap", AnalyzeRequest{Benchmark: "word_count", Scale: 5}, "", http.StatusBadRequest},
		{"bad membudget", AnalyzeRequest{Source: "int x;"}, "membudget=bogus", http.StatusBadRequest},
		{"bad steplimit", AnalyzeRequest{Source: "int x;"}, "steplimit=1e9", http.StatusBadRequest},
		{"bad deadline", AnalyzeRequest{Source: "int x;"}, "deadline=soon", http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, _, er := postAnalyze(t, ts.URL, tc.req, tc.query)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
		if tc.name == "unknown benchmark" && !strings.Contains(er.Error, "unknown benchmark") {
			t.Errorf("unknown benchmark: error %q does not surface the workload error", er.Error)
		}
	}

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST malformed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatalf("GET analyze: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}

	// A compile error in the submitted source is the client's fault: 422
	// with the repo's failure exit code, not a 500.
	status, _, er := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "int x = ;"}, "")
	if status != http.StatusUnprocessableEntity {
		t.Errorf("compile error: status %d, want 422", status)
	}
	if er.ExitCode != exitcode.Failure {
		t.Errorf("compile error: exit_code %d, want %d", er.ExitCode, exitcode.Failure)
	}
}

// TestHTTPStatusMapping pins the exit-code convention → HTTP status map.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct{ code, want int }{
		{exitcode.OK, http.StatusOK},
		{exitcode.DegradedAndersen, http.StatusOK},
		// 5 and 6 (the removed fallback tiers' codes) are never produced.
		{5, http.StatusInternalServerError},
		{6, http.StatusInternalServerError},
		{exitcode.Usage, http.StatusBadRequest},
		{exitcode.Failure, http.StatusUnprocessableEntity},
		{99, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.code); got != tc.want {
			t.Errorf("HTTPStatus(%d) = %d, want %d", tc.code, got, tc.want)
		}
	}
}

// TestKeyCanonicalization: the content address must not depend on how the
// default configuration is spelled, and must depend on the inputs.
func TestKeyCanonicalization(t *testing.T) {
	base := Key("a.mc", "int x;", fsam.Config{})
	if got := Key("a.mc", "int x;", fsam.Config{}.Normalize()); got != base {
		t.Errorf("zero config and normalized config disagree: %q vs %q", got, base)
	}
	if got := Key("a.mc", "int y;", fsam.Config{}); got == base {
		t.Errorf("source change did not change the key")
	}
	if got := Key("b.mc", "int x;", fsam.Config{}); got == base {
		t.Errorf("name change did not change the key")
	}
	if got := Key("a.mc", "int x;", fsam.Config{MemBudgetBytes: 1}); got == base {
		t.Errorf("budget change did not change the key")
	}
}

// TestAdmissionQueueFull: with one worker and no queue depth, a second
// distinct request is shed with 429 while the first holds the slot.
func TestAdmissionQueueFull(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, Queue: -1})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	svc.testAnalyzeStart = func() {
		once.Do(func() { close(started) })
		<-block
	}

	firstDone := make(chan int, 1)
	go func() {
		status, _, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: fig1aSrc, Name: "a.mc"}, "")
		firstDone <- status
	}()
	<-started

	// A different key, so it cannot ride the first request's singleflight.
	status, _, er := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "int x; int main() { return 0; }", Name: "b.mc"}, "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated analyze: status %d, want 429", status)
	}
	if !strings.Contains(er.Error, "saturated") {
		t.Fatalf("saturated analyze: error %q", er.Error)
	}

	close(block)
	if got := <-firstDone; got != http.StatusOK {
		t.Fatalf("first analyze: status %d", got)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, `fsamd_shed_total{reason="queue_full"}`); got != 1 {
		t.Fatalf("fsamd_shed_total{queue_full} = %g, want 1", got)
	}
}

// TestSingleflightDedup: two concurrent identical submissions run the
// pipeline once.
func TestSingleflightDedup(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	svc.testAnalyzeStart = func() {
		once.Do(func() { close(started) })
		<-block
	}

	req := AnalyzeRequest{Source: fig1aSrc, Name: "dedup.mc"}
	type result struct {
		status int
		resp   AnalyzeResponse
	}
	results := make(chan result, 2)
	go func() {
		status, resp, _ := postAnalyze(t, ts.URL, req, "")
		results <- result{status, resp}
	}()
	<-started
	go func() {
		status, resp, _ := postAnalyze(t, ts.URL, req, "")
		results <- result{status, resp}
	}()
	// Let the follower reach the flight (or, at worst, the published cache
	// entry — either way the pipeline must not run twice).
	time.Sleep(100 * time.Millisecond)
	close(block)

	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d/%d", a.status, b.status)
	}
	if a.resp.ID != b.resp.ID {
		t.Fatalf("ids differ: %q vs %q", a.resp.ID, b.resp.ID)
	}
	follower := a.resp
	if b.resp.Shared || b.resp.Cached {
		follower = b.resp
	}
	if !follower.Shared && !follower.Cached {
		t.Fatalf("neither response was deduplicated or cached: %+v / %+v", a.resp, b.resp)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, m, "fsamd_analyses_total"); got != 1 {
		t.Fatalf("fsamd_analyses_total = %g, want 1 (dedup failed)", got)
	}
}

// TestGracefulDrain: after BeginDrain, new analyze requests and /readyz
// answer 503 (with a Retry-After hint) while /healthz stays 200 — the
// process is alive, just not routable — and the in-flight request runs to
// completion under http.Server.Shutdown.
func TestGracefulDrain(t *testing.T) {
	svc := New(Options{Workers: 2})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	svc.testAnalyzeStart = func() {
		once.Do(func() { close(started) })
		<-block
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	inflight := make(chan AnalyzeResponse, 1)
	go func() {
		status, resp, _ := postAnalyze(t, base, AnalyzeRequest{Source: fig1aSrc, Name: "drain.mc"}, "")
		if status == http.StatusOK {
			inflight <- resp
		} else {
			inflight <- AnalyzeResponse{}
		}
	}()
	<-started

	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatalf("Draining() = false after BeginDrain")
	}

	status, _, er := postAnalyze(t, base, AnalyzeRequest{Source: "int x;"}, "")
	if status != http.StatusServiceUnavailable || !strings.Contains(er.Error, "draining") {
		t.Fatalf("analyze while draining: status %d, error %q", status, er.Error)
	}
	var health HealthResponse
	getJSON(t, base+"/healthz", http.StatusOK, &health)
	if health.Status != "draining" {
		t.Fatalf("healthz while draining: status %q", health.Status)
	}
	var ready HealthResponse
	getJSON(t, base+"/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Status != "draining" {
		t.Fatalf("readyz while draining: status %q", ready.Status)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(shutCtx) }()
	close(block)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	got := <-inflight
	if got.ID == "" {
		t.Fatalf("in-flight request did not complete during drain")
	}
	if got.Cached {
		t.Fatalf("in-flight request unexpectedly served from cache")
	}
}

// TestAnalyzeEscape covers the thread-escape surface of the service: the
// ?escape=1 summary, its absence from the content address, and rejection
// of the retired ?escapeprune= parameter.
func TestAnalyzeEscape(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// ?escape=1 attaches the classification summary; the Fig. 1a program
	// has shared globals, so the shared class must be populated.
	status, got, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: fig1aSrc}, "escape=1")
	if status != http.StatusOK {
		t.Fatalf("analyze with escape=1: status %d", status)
	}
	if got.Escape == nil {
		t.Fatalf("escape=1: no escape summary in response")
	}
	if got.Escape.Shared == 0 {
		t.Errorf("escape summary: shared = 0, want > 0 for fig1a")
	}
	if got.Escape.PrunedEdges == 0 {
		t.Errorf("escape summary: pruned_edges = 0, want > 0 with pruning on")
	}
	if got.Stats.FSAMEscapeShared != got.Escape.Shared {
		t.Errorf("stats (%d) and summary (%d) disagree on shared count",
			got.Stats.FSAMEscapeShared, got.Escape.Shared)
	}

	// Without ?escape=1 the summary is absent — presentation, not cache
	// state: the second request hits the same entry.
	status, plain, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: fig1aSrc}, "")
	if status != http.StatusOK {
		t.Fatalf("analyze without escape: status %d", status)
	}
	if plain.Escape != nil {
		t.Errorf("escape summary present without ?escape=1")
	}
	if !plain.Cached {
		t.Errorf("plain re-request missed the cache: escape=1 must not change the key")
	}

	// Pruning is unconditional: the retired ?escapeprune= parameter is an
	// unknown query parameter, a 400 that names it.
	status, _, er := postAnalyze(t, ts.URL, AnalyzeRequest{Source: fig1aSrc}, "escapeprune=off")
	if status != http.StatusBadRequest {
		t.Errorf("escapeprune=off: status %d, want 400", status)
	}
	if !strings.Contains(er.Error, "escapeprune") {
		t.Errorf("escapeprune=off error %q does not name the parameter", er.Error)
	}
}
