package gateway

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/server/client"
)

// replicaState is the probe-driven availability of one fsamd replica.
type replicaState int32

const (
	// stateHealthy: /readyz answered 200; full rotation.
	stateHealthy replicaState = iota
	// stateDegraded: the process is alive but not taking new work — it
	// answered /readyz with 503 (draining or saturated) or failed a probe
	// but not enough of them to eject. A draining replica is deliberately
	// kept here, NOT ejected: it is finishing in-flight requests and still
	// answers queries from its warm cache.
	stateDegraded
	// stateEjected: consecutive probe transport failures crossed the
	// threshold; the process is presumed gone. Out of every chain until a
	// probe succeeds again.
	stateEjected
)

func (s replicaState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDegraded:
		return "degraded"
	case stateEjected:
		return "ejected"
	}
	return "unknown"
}

// replica is the gateway's handle on one fsamd instance: a non-retrying
// client (the gateway owns retries), a circuit breaker shared by probes
// and traffic, and the probe-driven state machine.
type replica struct {
	name    string // base URL, also the metrics label
	client  *client.Client
	breaker *resilience.Breaker

	state       atomic.Int32
	consecFails atomic.Int32
	draining    atomic.Bool
}

func (rp *replica) State() replicaState     { return replicaState(rp.state.Load()) }
func (rp *replica) setState(s replicaState) { rp.state.Store(int32(s)) }
func (rp *replica) routable() bool          { return rp.State() == stateHealthy }
func (rp *replica) peekable() bool          { return rp.State() != stateEjected }

// probe runs one readiness check and advances the state machine. The
// probe routes through the same breaker as traffic: a killed replica's
// breaker opens (and a restarted one walks open → half-open → closed)
// even when no client traffic touches it, so breaker state always tracks
// reality rather than request luck.
func (rp *replica) probe(ctx context.Context, ejectAfter int, probes *metrics.Counter) {
	admitted := rp.breaker.Allow()
	resp, ready, err := rp.client.Ready(ctx)
	switch {
	case err != nil:
		if admitted {
			rp.breaker.Record(false)
		}
		probes.Inc("error")
		if int(rp.consecFails.Add(1)) >= ejectAfter {
			rp.setState(stateEjected)
		} else {
			rp.setState(stateDegraded)
		}
	case ready:
		if admitted {
			rp.breaker.Record(true)
		}
		probes.Inc("ready")
		rp.consecFails.Store(0)
		rp.draining.Store(false)
		rp.setState(stateHealthy)
	default:
		// 503 from /readyz: the process is alive and explicitly saying
		// "no new work". That is a correct answer, not a fault — the
		// breaker records success (the replica is reachable) and the
		// state machine degrades instead of ejecting, which is exactly
		// how a drain is respected: out of the rotation, in-flight work
		// untouched, queries still served.
		if admitted {
			rp.breaker.Record(true)
		}
		probes.Inc("notready")
		rp.consecFails.Store(0)
		rp.draining.Store(resp != nil && resp.Status == "draining")
		rp.setState(stateDegraded)
	}
}

// latencyWindow is a fixed-size ring of full-analysis latencies backing
// the adaptive hedge delay.
type latencyWindow struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	full    bool
}

func newLatencyWindow(size int) *latencyWindow {
	if size <= 0 {
		size = 512
	}
	return &latencyWindow{samples: make([]time.Duration, size)}
}

func (lw *latencyWindow) observe(d time.Duration) {
	lw.mu.Lock()
	lw.samples[lw.next] = d
	lw.next = (lw.next + 1) % len(lw.samples)
	if lw.next == 0 {
		lw.full = true
	}
	lw.mu.Unlock()
}

// p99 returns the 99th-percentile sample, or 0 while the window has too
// few samples to say anything (callers fall back to the hedge floor).
func (lw *latencyWindow) p99() time.Duration {
	lw.mu.Lock()
	n := lw.next
	if lw.full {
		n = len(lw.samples)
	}
	if n < 8 {
		lw.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, lw.samples[:n])
	lw.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	idx := (n*99 + 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}
