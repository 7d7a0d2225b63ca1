package cluster

import (
	"io"
	"testing"
	"time"

	"repro/internal/server"
)

// TestClusterRun is the end-to-end fleet drill: two live replicas behind a
// gateway, chaos (latency + errors) on replica 0, a hard kill/restart of
// replica 1 mid-run, and a client with retries off. Each case must show
// zero client-visible failures while retries, hedges, and a full breaker
// open→close cycle are all actually observed. The first case is the
// small drill; the other two are the full-size drill (150 requests under
// latency=30ms:0.3,error=0.15) at traffic seeds 1 and 2.
func TestClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet drill")
	}
	drill, err := server.ParseChaos("latency=30ms:0.3,error=0.15")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"small", Options{
			Requests: 80,
			HotKeys:  6,
			Chaos:    server.ChaosConfig{Latency: 20 * time.Millisecond, LatencyP: 0.5, ErrorP: 0.2, Seed: 7},
			Seed:     42,
		}},
		{"drill-seed1", Options{Requests: 150, Chaos: drill, Seed: 1}},
		{"drill-seed2", Options{Requests: 150, Chaos: drill, Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Replicas, opt.KillRestart, opt.Out = 2, true, io.Discard
			rep, err := Run(opt)
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
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
