package server

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.metrics golden files")

// TestMetricsGolden pins the fsamd exposition: a fixed request sequence
// must produce exactly the golden's sample keys (name plus labels) and the
// golden's value for every integer-valued sample. Regenerate with
//
//	go test ./internal/server -run TestMetricsGolden -update-golden
//
// Exempt from the comparison, and written into the golden as "~":
//   - time-valued samples (phase seconds, the latency histogram's buckets
//     and _sum, uptime), whose values vary run to run;
//   - the request path label of unrouted requests, which is compared after
//     folding every unknown path into path="unmatched";
//   - fsamd_phase_seconds_total series the golden lists at zero (phases
//     that never ran) or under a dotted sub-phase name: neither is
//     required to be present.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "fig1a.mc", Source: fig1aSrc}

	status, first, _ := postAnalyze(t, ts.URL, req, "")
	if status != http.StatusOK || first.Cached {
		t.Fatalf("analyze: status %d cached=%v, want a 200 miss", status, first.Cached)
	}
	if status, again, _ := postAnalyze(t, ts.URL, req, ""); status != http.StatusOK || !again.Cached {
		t.Fatalf("repeat analyze: status %d cached=%v, want a 200 hit", status, again.Cached)
	}
	if status, deg, _ := postAnalyze(t, ts.URL, req, "membudget=1"); status != http.StatusOK || deg.Degraded == "" {
		t.Fatalf("membudget=1 analyze: status %d degraded=%q, want a degraded 200", status, deg.Degraded)
	}
	noop := AnalyzeRequest{Name: "fig1a.mc", Source: "// comment-only edit\n" + fig1aSrc, Base: first.ProgKey}
	if status, d, _ := postAnalyze(t, ts.URL, noop, ""); status != http.StatusOK || d.Delta == nil || d.Delta.Tier != "noop" {
		t.Fatalf("noop delta: status %d delta=%+v", status, d.Delta)
	}
	getOK(t, ts.URL+"/v1/diagnostics?id="+first.ID, http.StatusOK)
	if status, tm, _ := postAnalyze(t, ts.URL, req, "engine=tmod"); status != http.StatusOK || tm.Engine != "tmod" {
		t.Fatalf("engine=tmod analyze: status %d engine=%q", status, tm.Engine)
	}
	getOK(t, ts.URL+"/nope-a", http.StatusNotFound)
	getOK(t, ts.URL+"/nope-b", http.StatusNotFound)

	m := scrapeMetrics(t, ts.URL)
	checkMetricsGolden(t, filepath.Join("testdata", "fsamd.metrics"), m, fsamdTimeValued, canonFsamdKey, fsamdOptional)
	checkWellFormed(t, m)
}

// TestUnmatchedPathsShareOneSeries: request paths no route matches cannot
// mint /metrics series — 100 distinct unknown paths count under one
// path="unmatched" series.
func TestUnmatchedPathsShareOneSeries(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i := 0; i < 100; i++ {
		getOK(t, fmt.Sprintf("%s/nope-%d", ts.URL, i), http.StatusNotFound)
	}
	m := scrapeMetrics(t, ts.URL)
	if n := strings.Count(m, "fsamd_requests_total{"); n != 1 {
		t.Errorf("%d fsamd_requests_total series, want 1:\n%s", n, m)
	}
	if got := metricValue(t, m, `fsamd_requests_total{path="unmatched",code="404"}`); got != 100 {
		t.Errorf("unmatched requests = %g, want 100", got)
	}
}

// getOK issues a GET and fails unless it answers want.
func getOK(t *testing.T, url string, want int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
}

func fsamdTimeValued(key string) bool {
	return strings.HasPrefix(key, "fsamd_phase_seconds_total{") ||
		strings.HasPrefix(key, "fsamd_request_duration_seconds_bucket{") ||
		key == "fsamd_request_duration_seconds_sum" ||
		key == "fsamd_uptime_seconds"
}

var unroutedPath = regexp.MustCompile(`^fsamd_requests_total\{path="(/nope[^"]*)"`)

// canonFsamdKey folds the path label of unrouted requests into
// "unmatched", the label the service uses for them.
func canonFsamdKey(key string) string {
	if m := unroutedPath.FindStringSubmatchIndex(key); m != nil {
		return key[:m[2]] + "unmatched" + key[m[3]:]
	}
	return key
}

// fsamdOptional names the golden series the service may omit: phase
// counters for phases that never ran and for dotted sub-phases.
func fsamdOptional(key, goldenValue string) bool {
	phase, ok := strings.CutPrefix(key, `fsamd_phase_seconds_total{phase="`)
	return ok && (goldenValue == "0" || strings.Contains(phase, "."))
}

// checkMetricsGolden compares an exposition against a golden sample list
// (see TestMetricsGolden for the rules), or rewrites the golden under
// -update-golden.
func checkMetricsGolden(t *testing.T, path, text string, timeValued func(string) bool, canon func(string) string, optional func(key, goldenValue string) bool) {
	t.Helper()
	got := map[string]string{}
	for key, v := range metrics.ParsePromText(text) {
		switch {
		case timeValued(key) && v != 0:
			got[key] = "~"
		default:
			got[key] = fmt.Sprintf("%g", v)
		}
	}
	if *updateGolden {
		var lines []string
		for k, v := range got {
			lines = append(lines, k+" "+v)
		}
		sort.Strings(lines)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (rerun with -update-golden?): %v", path, err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	fold := func(m map[string]string) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			ck := canon(k)
			if prev, dup := out[ck]; dup && prev != "~" && v != "~" {
				var a, b float64
				fmt.Sscan(prev, &a)
				fmt.Sscan(v, &b)
				v = fmt.Sprintf("%g", a+b)
			}
			out[ck] = v
		}
		return out
	}
	got, want = fold(got), fold(want)
	for k, wv := range want {
		gv, ok := got[k]
		switch {
		case !ok && optional(k, wv):
		case !ok:
			t.Errorf("sample %s missing (golden %s)", k, wv)
		case wv != "~" && !timeValued(k) && isInteger(wv) && gv != wv:
			t.Errorf("sample %s = %s, golden %s", k, gv, wv)
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("sample %s = %s is not in the golden", k, gv)
		}
	}
}

// checkWellFormed: every sample line parses through metrics.ParsePromText
// and belongs to a family that has both a HELP and a TYPE line.
func checkWellFormed(t *testing.T, text string) {
	t.Helper()
	help, typ := map[string]bool{}, map[string]string{}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			help[f[2]] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			typ[f[2]] = f[3]
		default:
			samples = append(samples, line)
		}
	}
	for fam := range typ {
		if !help[fam] {
			t.Errorf("family %s has a TYPE line but no HELP line", fam)
		}
	}
	for fam := range help {
		if typ[fam] == "" {
			t.Errorf("family %s has a HELP line but no TYPE line", fam)
		}
	}
	for _, line := range samples {
		if len(metrics.ParsePromText(line)) != 1 {
			t.Errorf("sample line does not parse: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count"); typ[base] == "histogram" {
			name = base
		}
		if typ[name] == "" {
			t.Errorf("sample %q belongs to no declared family", line)
		}
	}
}

func isInteger(v string) bool {
	var f float64
	_, err := fmt.Sscan(v, &f)
	return err == nil && f == float64(int64(f))
}
