package gateway

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/server/client"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.metrics golden files")

// TestMetricsGolden pins the fsamgw exposition: a fixed request sequence
// through a two-replica fleet must produce exactly the golden's sample
// keys (name plus labels, replica URLs rewritten to replica0/replica1) and
// the golden's value for every integer-valued sample. Time-valued samples
// (hedge delay, uptime) are exempt and written into the golden as "~".
// Regenerate with
//
//	go test ./internal/gateway -run TestMetricsGolden -update-golden
func TestMetricsGolden(t *testing.T) {
	f := newFleet(t, 2, nil, Options{
		Retry:            resilience.Policy{MaxAttempts: 2, Backoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: 0.01}},
		BreakerThreshold: 2,
	})
	f.gw.hedgeOff = true // no hedges: their count depends on timing
	ctx := context.Background()

	// Miss, then a cache hit on the primary.
	src := f.srcOwnedBy(t, 0)
	first, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: src}); err != nil {
		t.Fatalf("Analyze (repeat): %v", err)
	}
	// The sibling holds the only cached copy, which is not consulted: the
	// primary analyzes afresh.
	peer := f.variantOwnedBy(t, 0, src+" // warmed on the sibling")
	if _, err := client.New(f.ts[1].URL).Analyze(ctx, server.AnalyzeRequest{Source: peer}); err != nil {
		t.Fatalf("direct Analyze: %v", err)
	}
	if _, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: peer}); err != nil {
		t.Fatalf("Analyze (sibling-cached): %v", err)
	}
	if _, err := f.cl.Diagnostics(ctx, first.ID, []string{"race"}); err != nil {
		t.Fatalf("race diagnostics: %v", err)
	}
	resp, err := http.Post(f.gts.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("POST malformed body: %v", err)
	}
	resp.Body.Close()
	// Kill the primary: retry, fail over, then probes eject it and trip
	// its breaker.
	f.ts[0].Close()
	if _, err := f.cl.Analyze(ctx, server.AnalyzeRequest{Source: f.variantOwnedBy(t, 0, src+" // after failover")}); err != nil {
		t.Fatalf("Analyze with dead primary: %v", err)
	}
	for i := 0; i < 4; i++ {
		f.gw.probeRound()
	}

	m, err := client.New(f.gts.URL).Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for i, ts := range f.ts {
		m = strings.ReplaceAll(m, ts.URL, fmt.Sprintf("replica%d", i))
	}
	checkMetricsGolden(t, filepath.Join("testdata", "fsamgw.metrics"), m)
	checkWellFormed(t, m)
}

// variantOwnedBy appends comment padding to src until replica want is the
// primary owner of its routing key (the ring hashes the replicas' random
// test ports, so ownership differs from run to run).
func (f *fleet) variantOwnedBy(t *testing.T, want int, src string) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		v := src + strings.Repeat(" ", i)
		key, ok, _, err := server.RoutingKey(server.AnalyzeRequest{Source: v}, 16)
		if err != nil || !ok {
			t.Fatalf("RoutingKey: %v", err)
		}
		if f.gw.ring.order(key)[0] == want {
			return v
		}
	}
	t.Fatal("no variant found with the desired primary")
	return ""
}

// checkWellFormed: every sample line parses through metrics.ParsePromText
// and belongs to a family that has both a HELP and a TYPE line (fsamgw has
// no histograms, so a sample's family is its name).
func checkWellFormed(t *testing.T, text string) {
	t.Helper()
	help, typ := map[string]bool{}, map[string]bool{}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			help[f[2]] = true
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			typ[f[2]] = true
		default:
			samples = append(samples, line)
		}
	}
	for fam := range typ {
		if !help[fam] {
			t.Errorf("family %s has a TYPE line but no HELP line", fam)
		}
	}
	for _, line := range samples {
		if len(metrics.ParsePromText(line)) != 1 {
			t.Errorf("sample line does not parse: %q", line)
		} else if name := line[:strings.IndexAny(line, "{ ")]; !typ[name] || !help[name] {
			t.Errorf("sample %q lacks a HELP or TYPE line for its family", line)
		}
	}
}

func fsamgwTimeValued(key string) bool {
	return key == "fsamgw_hedge_delay_seconds" || key == "fsamgw_uptime_seconds"
}

// checkMetricsGolden compares an exposition against a golden sample list,
// or rewrites the golden under -update-golden.
func checkMetricsGolden(t *testing.T, path, text string) {
	t.Helper()
	got := map[string]string{}
	for key, v := range metrics.ParsePromText(text) {
		if fsamgwTimeValued(key) {
			got[key] = "~"
		} else {
			got[key] = fmt.Sprintf("%g", v)
		}
	}
	if *updateGolden {
		var lines []string
		for k, v := range got {
			lines = append(lines, k+" "+v)
		}
		sort.Strings(lines)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
	for k, wv := range want {
		gv, ok := got[k]
		switch {
		case !ok:
			t.Errorf("sample %s missing (golden %s)", k, wv)
		case gv != wv:
			t.Errorf("sample %s = %s, golden %s", k, gv, wv)
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("sample %s = %s is not in the golden", k, gv)
		}
	}
}
