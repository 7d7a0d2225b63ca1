package cluster

import (
	"io"
	"testing"
	"time"

	"repro/internal/server"
)

// TestClusterRun is the end-to-end fleet drill at test size: two live
// replicas behind a gateway, chaos (latency + errors) on replica 0, a
// hard kill/restart of replica 1 mid-run, and a client with retries off.
// The gates are the PR's acceptance criteria in miniature: zero
// client-visible failures while retries, hedges, and a full breaker
// open→close cycle are all actually observed.
func TestClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet drill")
	}
	rep, err := Run(Options{
		Replicas: 2,
		Requests: 80,
		HotKeys:  6,
		Chaos: server.ChaosConfig{
			Latency:  20 * time.Millisecond,
			LatencyP: 0.5,
			ErrorP:   0.2,
			Seed:     7,
		},
		KillRestart: true,
		Seed:        42,
		Out:         io.Discard,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep.Print(testWriter{t})
	if err := rep.Gate(); err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if rep.ChaosInjected == 0 {
		t.Fatal("chaos replica reports zero injected faults")
	}
	if rep.AnalyzeSamples != rep.Requests || rep.AnalyzeP50 <= 0 || rep.AnalyzeP90 < rep.AnalyzeP50 {
		t.Fatalf("analyze latency: p50 %s p90 %s over %d samples, want 0 < p50 <= p90 over %d",
			rep.AnalyzeP50, rep.AnalyzeP90, rep.AnalyzeSamples, rep.Requests)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
