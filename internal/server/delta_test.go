package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	fsam "repro"
)

// deltaBaseSrc is the base program of the incremental-endpoint tests: two
// threads, a lock, and a branch whose constant can be tweaked without
// changing any pointer structure (the iso tier's home turf).
const deltaBaseSrc = `int g; int h;
int *p; int *q;
lock_t m;
void worker(void *arg) {
	lock(&m);
	if (g > 3) {
		p = &g;
	}
	unlock(&m);
}
int main() {
	thread_t t;
	q = &h;
	t = spawn(worker, NULL);
	lock(&m);
	g = 1;
	unlock(&m);
	join(t);
	return 0;
}
`

// postAnalyzeHdr is postAnalyze plus the response headers, which carry the
// delta tier and fact-store counters.
func postAnalyzeHdr(t *testing.T, base string, req AnalyzeRequest) (int, AnalyzeResponse, ErrorResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
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
	return resp.StatusCode, ok, bad, resp.Header
}

func TestAnalyzeDeltaTiers(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	status, baseResp, _, _ := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: deltaBaseSrc,
	})
	if status != http.StatusOK {
		t.Fatalf("base analyze: status %d", status)
	}
	if baseResp.ProgKey == "" {
		t.Fatalf("base response carries no prog_key")
	}
	if baseResp.Delta != nil {
		t.Fatalf("from-scratch run reported a delta: %+v", baseResp.Delta)
	}

	// Comment/whitespace edit: noop tier, zero phases, same program key.
	noopSrc := strings.Replace(deltaBaseSrc, "\tlock(&m);\n\tif",
		"\t/* tuned threshold */\n\tlock(&m);\n\tif", 1)
	if noopSrc == deltaBaseSrc {
		t.Fatal("noop patch did not apply")
	}
	status, noopResp, _, hdr := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: noopSrc, Base: baseResp.ProgKey,
	})
	if status != http.StatusOK {
		t.Fatalf("noop delta: status %d", status)
	}
	if noopResp.Delta == nil || noopResp.Delta.Tier != "noop" {
		t.Fatalf("noop edit landed on %+v, want tier noop", noopResp.Delta)
	}
	if len(noopResp.Delta.PhasesRun) != 0 {
		t.Fatalf("noop tier ran phases: %v", noopResp.Delta.PhasesRun)
	}
	if noopResp.ProgKey != baseResp.ProgKey {
		t.Fatalf("noop tier changed the prog_key: %s vs %s", noopResp.ProgKey, baseResp.ProgKey)
	}
	if hdr.Get("X-Fsamd-Delta") != "noop" {
		t.Fatalf("X-Fsamd-Delta = %q, want noop", hdr.Get("X-Fsamd-Delta"))
	}
	if f := hdr.Get("X-Fsamd-Facts"); !strings.Contains(f, "hits=") {
		t.Fatalf("X-Fsamd-Facts = %q, want counter string", f)
	}

	// Constant edit: iso tier, worker changed, glue phases only.
	isoSrc := strings.Replace(deltaBaseSrc, "g > 3", "g > 9", 1)
	status, isoResp, _, hdr := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: isoSrc, Base: baseResp.ProgKey,
	})
	if status != http.StatusOK {
		t.Fatalf("iso delta: status %d", status)
	}
	if isoResp.Delta == nil || isoResp.Delta.Tier != "iso" {
		t.Fatalf("constant edit landed on %+v, want tier iso", isoResp.Delta)
	}
	if got := isoResp.Delta.ChangedFuncs; len(got) != 1 || got[0] != "worker" {
		t.Fatalf("changed funcs = %v, want [worker]", got)
	}
	if isoResp.Delta.AdoptedFuncs == 0 {
		t.Fatalf("iso tier adopted no functions")
	}
	if isoResp.ProgKey == baseResp.ProgKey {
		t.Fatalf("iso tier kept the base prog_key")
	}
	for _, p := range isoResp.Delta.PhasesRun {
		if p == "defuse" || p == "sparse" {
			t.Fatalf("iso tier re-ran %s (phases %v)", p, isoResp.Delta.PhasesRun)
		}
	}
	if hdr.Get("X-Fsamd-Delta") != "iso" {
		t.Fatalf("X-Fsamd-Delta = %q, want iso", hdr.Get("X-Fsamd-Delta"))
	}

	// The delta result is cached under the content address a from-scratch
	// request of the patched source would use — the keying contract that
	// makes the two interchangeable.
	status, again, _, _ := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: isoSrc,
	})
	if status != http.StatusOK {
		t.Fatalf("re-analyze patched source: status %d", status)
	}
	if !again.Cached || again.ID != isoResp.ID {
		t.Fatalf("from-scratch request of patched source missed the delta entry: cached=%v id=%s want %s",
			again.Cached, again.ID, isoResp.ID)
	}
	if again.Delta == nil || again.Delta.Tier != "iso" {
		t.Fatalf("cached replay lost the producing run's delta: %+v", again.Delta)
	}

	// Delta results answer queries exactly like from-scratch ones.
	resp, err := http.Get(ts.URL + "/v1/races?id=" + isoResp.ID)
	if err != nil {
		t.Fatalf("GET /v1/races: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("races on delta entry: status %d", resp.StatusCode)
	}

	// Metrics expose the delta tiers and the fact-store counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metricsText := string(mb)
	for _, want := range []string{
		`fsamd_delta_total{tier="noop"} 1`,
		`fsamd_delta_total{tier="iso"} 1`,
		"fsamd_facts_hits_total",
		"fsamd_facts_entries",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if strings.Contains(metricsText, "fsamd_facts_hits_total 0\n") {
		t.Errorf("fact store recorded no hits after a noop and an iso delta")
	}
}

func TestAnalyzeDeltaUnknownBase(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, bad, _ := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: deltaBaseSrc, Base: "deadbeefdeadbeef",
	})
	if status != http.StatusNotFound {
		t.Fatalf("unknown base: status %d, want 404", status)
	}
	if !strings.Contains(bad.Error, "deadbeefdeadbeef") {
		t.Fatalf("error does not name the base: %q", bad.Error)
	}
}

func TestAnalyzeDeltaBaseConfigGoverns(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, baseResp, _, _ := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: deltaBaseSrc,
		Config: fsam.Config{Engine: "cfgfree"},
	})
	if status != http.StatusOK {
		t.Fatalf("base analyze: status %d", status)
	}
	// The patch request asks for a different engine; the base's config wins.
	isoSrc := strings.Replace(deltaBaseSrc, "g > 3", "g > 9", 1)
	status, dResp, _, _ := postAnalyzeHdr(t, ts.URL, AnalyzeRequest{
		Name: "prog.mc", Source: isoSrc, Base: baseResp.ProgKey,
		Config: fsam.Config{Engine: "andersen"},
	})
	if status != http.StatusOK {
		t.Fatalf("delta analyze: status %d", status)
	}
	if dResp.Engine != "cfgfree" {
		t.Fatalf("delta ran engine %q, want the base's cfgfree", dResp.Engine)
	}
}
