package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exitcode"
	"repro/internal/server"
	"repro/internal/server/client"
)

const smokeSrc = `
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

// TestClientSmoke drives the full client surface against an in-process
// fsamd: analyze → pointsto → race and leak diagnostics → health → metrics.
func TestClientSmoke(t *testing.T) {
	svc := server.New(server.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL + "/") // trailing slash is trimmed

	ar, err := c.Analyze(ctx, server.AnalyzeRequest{Name: "smoke.mc", Source: smokeSrc})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if ar.Cached || ar.ExitCode != exitcode.OK {
		t.Fatalf("Analyze: cached=%v exit=%d", ar.Cached, ar.ExitCode)
	}

	again, err := c.Analyze(ctx, server.AnalyzeRequest{Name: "smoke.mc", Source: smokeSrc})
	if err != nil {
		t.Fatalf("Analyze (second): %v", err)
	}
	if !again.Cached || again.ID != ar.ID {
		t.Fatalf("second Analyze not a cache hit: cached=%v id=%q want %q", again.Cached, again.ID, ar.ID)
	}

	pt, err := c.PointsTo(ctx, ar.ID, "c")
	if err != nil {
		t.Fatalf("PointsTo: %v", err)
	}
	if len(pt.PointsTo) != 2 {
		t.Fatalf("pt(c) = %v, want 2 targets", pt.PointsTo)
	}

	if _, err := c.Diagnostics(ctx, ar.ID, []string{"race"}); err != nil {
		t.Fatalf("Diagnostics race: %v", err)
	}
	if _, err := c.Diagnostics(ctx, ar.ID, []string{"leak"}); err != nil {
		t.Fatalf("Diagnostics leak: %v", err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("Health: status %q", h.Status)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if !strings.Contains(m, "fsamd_cache_hits_total 1") {
		t.Fatalf("metrics missing the cache hit:\n%s", m)
	}

	// Errors decode into *APIError with the service's exit code.
	_, err = c.Analyze(ctx, server.AnalyzeRequest{Source: "int x = ;"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("compile error: got %v, want *APIError", err)
	}
	if apiErr.Status != 422 || apiErr.ExitCode != exitcode.Failure {
		t.Fatalf("compile error: %+v", apiErr)
	}
	if _, err := c.PointsTo(ctx, "sha256:beef", "c"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown id: %v", err)
	}

	// A draining server still reports health, as "draining".
	svc.BeginDrain()
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatalf("Health while draining: %v", err)
	}
	if h.Status != "draining" {
		t.Fatalf("Health while draining: status %q", h.Status)
	}
}
