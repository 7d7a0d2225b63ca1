package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ChaosConfig injects server-side faults into the API paths (/v1/*) so the
// fleet's resilience layer can be proven under load rather than asserted.
// The probes and observability endpoints (/healthz, /readyz, /metrics) are
// exempt: chaos models a struggling data path, and orchestration must keep
// seeing the truth — a replica that lies to its prober cannot be drained
// sanely. Every injected fault is surfaced in the metrics as
// fsamd_chaos_injected_total{kind}.
type ChaosConfig struct {
	// Latency is the injected delay, applied with probability LatencyP
	// before the request is handled.
	Latency  time.Duration
	LatencyP float64
	// ErrorP is the probability of answering 503 "chaos: injected error"
	// without handling the request. 503 keeps the fault inside the
	// retryable family a well-behaved client already handles.
	ErrorP float64
	// DropP is the probability of severing the connection without any
	// response — the client sees a transport error, as it would from a
	// crashed or partitioned replica.
	DropP float64
	// Seed makes the fault schedule reproducible (0 = seed 1).
	Seed int64
}

// Enabled reports whether any fault is configured.
func (c ChaosConfig) Enabled() bool {
	return (c.Latency > 0 && c.LatencyP > 0) || c.ErrorP > 0 || c.DropP > 0
}

// ParseChaos parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g. "latency=50ms:0.3,error=0.1,drop=0.05,seed=7". The latency
// value is DURATION or DURATION:PROBABILITY (probability defaults to 1);
// error and drop take a probability in [0,1].
func ParseChaos(spec string) (ChaosConfig, error) {
	var c ChaosConfig
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("chaos: %q is not key=value", part)
		}
		var err error
		switch k {
		case "latency":
			dur, prob := v, "1"
			if d, p, ok := strings.Cut(v, ":"); ok {
				dur, prob = d, p
			}
			if c.Latency, err = time.ParseDuration(dur); err != nil {
				return c, fmt.Errorf("chaos latency: %w", err)
			}
			if c.LatencyP, err = parseProb(prob); err != nil {
				return c, fmt.Errorf("chaos latency: %w", err)
			}
		case "error":
			if c.ErrorP, err = parseProb(v); err != nil {
				return c, fmt.Errorf("chaos error: %w", err)
			}
		case "drop":
			if c.DropP, err = parseProb(v); err != nil {
				return c, fmt.Errorf("chaos drop: %w", err)
			}
		case "seed":
			if c.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return c, fmt.Errorf("chaos seed: %w", err)
			}
		default:
			return c, fmt.Errorf("chaos: unknown key %q (want latency, error, drop, seed)", k)
		}
	}
	return c, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

// chaos is the fault-injection middleware state. Rolls share one seeded
// RNG under a mutex so the schedule is reproducible for a fixed request
// order.
type chaos struct {
	cfg      ChaosConfig
	injected *metrics.Counter // by kind
	mu       sync.Mutex
	rng      *rand.Rand
}

func newChaos(cfg ChaosConfig, injected *metrics.Counter) *chaos {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &chaos{cfg: cfg, injected: injected, rng: rand.New(rand.NewSource(seed))}
}

func (c *chaos) roll() (drop, latency, errResp float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64(), c.rng.Float64(), c.rng.Float64()
}

// intercept applies the configured faults ahead of the mux and reports
// whether the request should proceed to the real handler. Only /v1/ paths
// are eligible. Drop severs the connection (status recorded as 444, the
// conventional "closed without response"); error answers 503 so clients
// exercise their retry path; latency just delays and lets the request
// through.
func (c *chaos) intercept(rec *statusRecorder, r *http.Request) bool {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		return true
	}
	dropRoll, latRoll, errRoll := c.roll()
	if c.cfg.DropP > 0 && dropRoll < c.cfg.DropP {
		c.injected.Inc("drop")
		rec.status = 444
		if hj, ok := rec.ResponseWriter.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return false
			}
		}
		// The connection cannot be severed (e.g. an in-process
		// ResponseRecorder); an empty 500 is the closest stand-in.
		rec.WriteHeader(http.StatusInternalServerError)
		return false
	}
	if c.cfg.Latency > 0 && c.cfg.LatencyP > 0 && latRoll < c.cfg.LatencyP {
		c.injected.Inc("latency")
		select {
		case <-time.After(c.cfg.Latency):
		case <-r.Context().Done():
		}
	}
	if c.cfg.ErrorP > 0 && errRoll < c.cfg.ErrorP {
		c.injected.Inc("error")
		writeError(rec, http.StatusServiceUnavailable, 0, "chaos: injected error")
		return false
	}
	return true
}
