// Package resilience holds the fault-tolerance primitives shared by every
// component that talks to an fsamd replica over the network: the typed
// client (`fsam -server`, `fsamcheck -server`) and the fleet gateway
// (fsamgw). It provides exponential backoff with jitter, a retry policy
// that understands the daemon's overload signals (429 queue-full, 503
// draining/saturated, Retry-After hints), and a per-target circuit
// breaker.
//
// The primitives are deliberately transport-agnostic: Policy.Do drives any
// attempt function, and the HTTP helpers (RetryableStatus, RetryAfter) do
// the status classification callers feed back into it. Analyses are
// deterministic and content-addressed, so replaying a request — against the
// same replica or a different one — is always safe; the only question these
// types answer is when and how fast.
package resilience

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Backoff computes capped exponential delays with jitter. The zero value
// selects the documented defaults.
type Backoff struct {
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the randomized fraction of each delay in [0,1]: the delay
	// becomes d*(1-Jitter) + d*Jitter*rand. 0 selects the default 0.5
	// ("equal jitter"); use a tiny positive value for near-determinism.
	Jitter float64
	// Rand is the randomness seam for tests (default math/rand.Float64).
	Rand func() float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter <= 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	if b.Rand == nil {
		b.Rand = rand.Float64
	}
	return b
}

// Delay returns the wait before retry number attempt (0-based: Delay(0) is
// the wait after the first failure).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	d = d*(1-b.Jitter) + d*b.Jitter*b.Rand()
	return time.Duration(d)
}

// Policy bounds a retry loop. The zero value selects the defaults.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// Backoff spaces the retries.
	Backoff Backoff
	// MaxHintWait caps how long a server-provided hint (Retry-After) is
	// honored for (default 5s) — a hint beyond the cap waits the cap.
	MaxHintWait time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.MaxHintWait <= 0 {
		p.MaxHintWait = 5 * time.Second
	}
	return p
}

// Do calls fn until it succeeds, reports a non-retryable error, the
// attempts are exhausted, or ctx is done. fn receives the 0-based attempt
// number and returns a server wait hint (0 for none), whether the failure
// invites a retry, and the error (nil on success). The wait between
// attempts is the larger of the backoff delay and the (capped) hint.
func (p Policy) Do(ctx context.Context, fn func(attempt int) (hint time.Duration, retryable bool, err error)) error {
	p = p.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		hint, retryable, err := fn(attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt == p.MaxAttempts-1 {
			return lastErr
		}
		wait := p.Backoff.Delay(attempt)
		if hint > 0 {
			if hint > p.MaxHintWait {
				hint = p.MaxHintWait
			}
			if hint > wait {
				wait = hint
			}
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return lastErr
}

// RetryableStatus reports whether an HTTP status invites retrying the same
// request: 429 (admission queue full) and 503 (draining, saturated, or a
// chaos-injected fault). Everything else is either success, the client's
// fault, or a replica fault better answered by failover than by hammering.
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// RetryAfter parses a Retry-After header into a wait hint. Both the
// delta-seconds and the HTTP-date forms are accepted; absent or malformed
// headers report ok=false.
func RetryAfter(h http.Header) (d time.Duration, ok bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second)), true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// State is a circuit breaker's position.
type State int32

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = iota
	// Open: requests are refused until the cooldown elapses.
	Open
	// HalfOpen: one probe request is admitted; its outcome decides.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-target circuit breaker: Threshold consecutive failures
// open it, the Cooldown later a single half-open probe is admitted, and
// that probe's outcome closes or re-opens it. The zero value (with any
// needed fields set before first use) is ready to use; all methods are
// safe for concurrent callers.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5).
	Threshold int
	// Cooldown is the open period before a half-open probe (default 5s).
	Cooldown time.Duration
	// OnTransition, when non-nil, observes every state change. It is
	// called with the breaker's lock held and must not call back in.
	OnTransition func(from, to State)
	// Now is the clock seam for tests (default time.Now).
	Now func() time.Time

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 5 * time.Second
	}
	return b.Cooldown
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// Allow reports whether a request may proceed. While open, the first call
// after the cooldown flips the breaker half-open and is admitted as the
// probe; every admitted caller must report back through Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown() {
			b.transition(HalfOpen)
			b.probing = true
			return true
		}
		return false
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Record reports the outcome of an admitted request.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold() {
			b.transition(Open)
			b.openedAt = b.now()
		}
	case HalfOpen:
		b.probing = false
		if success {
			b.transition(Closed)
			b.failures = 0
		} else {
			b.transition(Open)
			b.openedAt = b.now()
		}
	case Open:
		// A straggler from before the trip; the trip already decided.
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
