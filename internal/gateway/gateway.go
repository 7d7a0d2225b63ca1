// Package gateway implements fsamgw: a stateless fault-tolerant router in
// front of a fleet of fsamd replicas. Requests are spread by consistent
// hashing on their content address (server.RoutingKey), so each replica's
// result cache stays hot for its share of the keyspace; everything else —
// health probing, retries with backoff, circuit breakers, hedged requests,
// drain-respecting failover — exists to keep that routing correct and the
// client oblivious while replicas fail, drain, restart, or misbehave.
//
// The gateway holds no durable state. Replica availability is re-learned
// by probes within seconds of a restart, and the result caches live in the
// replicas; any number of gateways can front the same fleet.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Options configures a Gateway. Zero values select the documented
// defaults.
type Options struct {
	// Replicas are the fsamd base URLs, e.g. "http://127.0.0.1:8077".
	Replicas []string
	// VNodes is the number of ring points per replica (default 64).
	VNodes int
	// ProbeInterval spaces the /readyz health probes (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange (default 2s).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive probe transport failures that eject a
	// replica (default 3). A 503 readiness answer never ejects.
	EjectAfter int
	// Retry is the same-replica retry policy for transient failures
	// (default: resilience defaults, 3 attempts).
	Retry resilience.Policy
	// BreakerThreshold / BreakerCooldown configure the per-replica
	// circuit breakers (defaults 5 failures / 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxSourceBytes bounds the request body (default 4 MB) and MaxScale
	// the benchmark scale (default 16); both must match the replicas or
	// the gateway would compute routing keys for requests the replicas
	// reject.
	MaxSourceBytes int64
	MaxScale       int
	// Log receives routing decisions (default: discard).
	Log *log.Logger
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.MaxSourceBytes <= 0 {
		o.MaxSourceBytes = 4 << 20
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 16
	}
	if o.Log == nil {
		o.Log = log.New(io.Discard, "", 0)
	}
	return o
}

// hedgeFloor is the minimum hedge delay, so a fast fleet doesn't hedge
// every request.
const hedgeFloor = 25 * time.Millisecond

// Gateway routes analysis traffic across the replica fleet.
type Gateway struct {
	opt  Options
	ring *ring
	reps []*replica
	met  *gatewayMetrics
	lat  *latencyWindow
	http *http.Client
	mux  *http.ServeMux

	// hedgeOff keeps hedges out of tests whose counts must not depend on
	// timing.
	hedgeOff bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Gateway over the given replicas. Call Start to begin
// probing and Stop to shut the prober down.
func New(opt Options) (*Gateway, error) {
	opt = opt.withDefaults()
	if len(opt.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	g := &Gateway{
		opt:  opt,
		ring: newRing(opt.Replicas, opt.VNodes),
		lat:  newLatencyWindow(512),
		http: &http.Client{Timeout: client.DefaultTimeout},
		stop: make(chan struct{}),
	}
	g.met = newGatewayMetrics(g)
	for _, name := range opt.Replicas {
		name := name
		rp := &replica{name: name}
		rp.client = client.New(name)
		rp.client.Retry = &resilience.Policy{MaxAttempts: 1} // the gateway owns retries
		rp.breaker = &resilience.Breaker{
			Threshold: opt.BreakerThreshold,
			Cooldown:  opt.BreakerCooldown,
			OnTransition: func(from, to resilience.State) {
				g.met.breakerTran.Inc(name, to.String())
			},
		}
		g.reps = append(g.reps, rp)
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/analyze", g.handleAnalyze)
	for _, p := range []string{"/v1/pointsto", "/v1/diagnostics"} {
		g.mux.HandleFunc(p, g.handleQuery)
	}
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// Start runs one synchronous probe round (so routing state is accurate
// before the first request) and then probes on ProbeInterval until Stop.
func (g *Gateway) Start() {
	g.probeRound()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.opt.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.probeRound()
			}
		}
	}()
}

// Stop halts the prober. In-flight requests are unaffected.
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Handler returns the gateway's HTTP handler: the fsamd API surface plus
// the gateway's own /healthz, /readyz and /metrics.
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) probeRound() {
	var wg sync.WaitGroup
	for _, rp := range g.reps {
		rp := rp
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.opt.ProbeTimeout)
			defer cancel()
			was := rp.State()
			rp.probe(ctx, g.opt.EjectAfter, g.met.probes)
			if now := rp.State(); now != was {
				g.opt.Log.Printf("replica %s: %s -> %s", rp.name, was, now)
			}
		}()
	}
	wg.Wait()
}

// replicaStates samples the fleet for the metrics gauges.
func (g *Gateway) replicaStates() map[string]string {
	out := make(map[string]string, len(g.reps))
	for _, rp := range g.reps {
		st := rp.State().String()
		if rp.State() == stateDegraded && rp.draining.Load() {
			st = "draining"
		}
		out[rp.name] = st
	}
	return out
}

// hedgeDelay is the wait before a cold analyze is raced on a sibling: the
// p99 of recent analyze latencies, never below hedgeFloor.
func (g *Gateway) hedgeDelay() time.Duration {
	if p := g.lat.p99(); p > hedgeFloor {
		return p
	}
	return hedgeFloor
}

// ---- upstream plumbing ----

// upstream is one buffered HTTP exchange with a replica. Bodies are small
// JSON documents, so buffering beats streaming: it lets the gateway
// classify, replay, and race responses freely.
type upstream struct {
	status  int
	header  http.Header
	body    []byte
	replica int
}

func (g *Gateway) roundTrip(ctx context.Context, repIdx int, method, path, rawQuery string, body []byte) (*upstream, error) {
	u := g.reps[repIdx].name + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &upstream{status: resp.StatusCode, header: resp.Header, body: buf, replica: repIdx}, nil
}

// emit forwards an upstream response to the client, stamping the replica
// that served it.
func (g *Gateway) emit(w http.ResponseWriter, us *upstream) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := us.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fsamgw-Replica", g.reps[us.replica].name)
	w.WriteHeader(us.status)
	w.Write(us.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, server.ErrorResponse{Error: msg})
}

// ---- replica walk ----

var (
	errBreakerOpen = errors.New("circuit breaker open")
	errAllNotFound = errors.New("no candidate holds the entry")
	errNoCandidate = errors.New("no replica available")
)

// walkRounds bounds the replays of a candidate walk whose round ended in
// transient failures, so a chaos-flaky or briefly overloaded fleet cannot
// surface a spurious failure or miss to the client.
const walkRounds = 3

// walk sends one request to the candidate replicas in order until one
// gives a final answer, which it returns with a nil error. With next404 a
// 404 means "not this replica's cache" and moves on to the next replica;
// otherwise a 404 is final like any other 4xx. A round that saw a
// transient failure (a transport error, 429/503 past the retries, another
// 5xx, an open breaker) is replayed, up to walkRounds rounds.
//
// Without a final answer, walk returns errAllNotFound and the last 404
// when some replica answered 404 under next404; otherwise the last
// transient response, kept so the caller can propagate an honest 503, or
// nil when no replica answered at all.
func (g *Gateway) walk(ctx context.Context, candidates []int, method, path, rawQuery string, body []byte, next404 bool) (*upstream, error) {
	var notFound, last *upstream
	lastErr := errNoCandidate
	for round := 0; round < walkRounds; round++ {
		transient := false
		for i, idx := range g.usable(candidates) {
			if i > 0 {
				g.met.failovers.Inc()
			}
			us, err := g.onReplica(ctx, idx, method, path, rawQuery, body)
			switch {
			case err == nil && us.status == http.StatusNotFound && next404:
				notFound = us
			case err == nil:
				return us, nil
			case ctx.Err() != nil:
				return last, ctx.Err()
			default:
				transient = true
				lastErr = err
				if us != nil {
					last = us
				}
			}
		}
		if !transient {
			break
		}
	}
	if notFound != nil {
		return notFound, errAllNotFound
	}
	return last, lastErr
}

// onReplica runs one request against one replica under the same-replica
// retry policy and its breaker. A nil error means us is the replica's
// answer: 2xx or 4xx. A non-nil error means the replica failed
// transiently; us, when non-nil, is the last response it gave.
func (g *Gateway) onReplica(ctx context.Context, idx int, method, path, rawQuery string, body []byte) (us *upstream, err error) {
	rep := g.reps[idx]
	retryReason := ""
	err = g.opt.Retry.Do(ctx, func(attempt int) (time.Duration, bool, error) {
		if attempt > 0 {
			g.met.retries.Inc(retryReason)
		}
		if !rep.breaker.Allow() {
			return 0, false, errBreakerOpen
		}
		r, rerr := g.roundTrip(ctx, idx, method, path, rawQuery, body)
		if rerr != nil {
			if ctx.Err() != nil {
				// The gateway cancelled this round trip itself (a hedge
				// loser, or the client gave up): no evidence against the
				// replica.
				rep.breaker.Record(true)
				return 0, false, rerr
			}
			rep.breaker.Record(false)
			retryReason = "connect"
			return 0, true, rerr
		}
		us = r
		switch {
		case resilience.RetryableStatus(r.status):
			// 429/503: explicit backpressure from a live process. Not a
			// breaker failure — tripping on overload would turn a brownout
			// into a blackout.
			rep.breaker.Record(true)
			retryReason = "status"
			hint, _ := resilience.RetryAfter(r.header)
			return hint, true, fmt.Errorf("replica %s: HTTP %d", rep.name, r.status)
		case r.status >= 500:
			// A replica fault: fail over rather than hammer it.
			rep.breaker.Record(false)
			return 0, false, fmt.Errorf("replica %s: HTTP %d", rep.name, r.status)
		}
		rep.breaker.Record(true)
		return 0, false, nil
	})
	return us, err
}

// usable filters candidates to routable replicas, relaxing to any
// non-ejected replica when nothing healthy remains — a degraded fleet
// should brown out, not black out.
func (g *Gateway) usable(candidates []int) []int {
	var healthy, alive []int
	for _, idx := range candidates {
		if g.reps[idx].routable() {
			healthy = append(healthy, idx)
		}
		if g.reps[idx].peekable() {
			alive = append(alive, idx)
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	return alive
}

// reply forwards a walk's outcome to the client: the answer, else the
// last honest upstream response (a fleet-wide 404, or a 503 with
// Retry-After from a fleet that is entirely draining), else a 502.
func (g *Gateway) reply(w http.ResponseWriter, us *upstream, err error) {
	if us == nil {
		g.met.upstreamErr.Inc()
		writeError(w, http.StatusBadGateway, "no replica could serve the request: "+err.Error())
		return
	}
	g.emit(w, us)
}

// ---- analyze path ----

// analyzeHedged races the primary walk against a rotated sibling walk
// after the hedge delay. Analyses are deterministic and content-addressed,
// so duplicated work converges on the same cache entry; the loser's
// request context is cancelled as soon as a winner lands, and the loser
// has unwound, its breaker verdict recorded, before analyzeHedged returns.
func (g *Gateway) analyzeHedged(ctx context.Context, candidates []int, rawQuery string, body []byte, next404 bool) (*upstream, error) {
	walk := func(ctx context.Context, order []int) (*upstream, error) {
		return g.walk(ctx, order, http.MethodPost, "/v1/analyze", rawQuery, body, next404)
	}
	usable := g.usable(candidates)
	if len(usable) < 2 || g.hedgeOff {
		return walk(ctx, candidates)
	}
	type result struct {
		us    *upstream
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	hctx, cancel := context.WithCancel(ctx)
	outstanding := 0
	defer func() {
		cancel()
		for ; outstanding > 0; outstanding-- {
			<-ch
		}
	}()
	launch := func(order []int, hedge bool) {
		outstanding++
		go func() {
			us, err := walk(hctx, order)
			ch <- result{us, err, hedge}
		}()
	}
	launch(usable, false)

	timer := time.NewTimer(g.hedgeDelay())
	defer timer.Stop()
	timerC := timer.C

	rotated := append(append([]int{}, usable[1:]...), usable[0])
	var last *upstream
	var lastErr error
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					g.met.hedgeWins.Inc()
				}
				return r.us, nil
			}
			if r.us != nil {
				last = r.us
			}
			lastErr = r.err
		case <-timerC:
			timerC = nil
			g.met.hedges.Inc()
			launch(rotated, true)
		}
	}
	return last, lastErr
}

func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	g.met.requests.Inc("analyze")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.opt.MaxSourceBytes))
	if err != nil {
		g.met.badRequests.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	req, err := server.DecodeAnalyze(body, r.URL.Query())
	if err != nil {
		g.met.badRequests.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, keyable, errStatus, err := server.RoutingKey(req, g.opt.MaxScale)
	if err != nil {
		g.met.badRequests.Inc()
		writeError(w, errStatus, err.Error())
		return
	}
	if !keyable {
		// Base+patch: route on the base's program key; a replica that
		// does not hold the base answers 404 and the walk moves on.
		key = req.Base
	}

	start := time.Now()
	us, err := g.analyzeHedged(r.Context(), g.ring.order(key), r.URL.RawQuery, body, !keyable)
	if errors.Is(err, errAllNotFound) && req.Base != "" {
		// No replica holds the base (evicted, or its holder died). The
		// delta is unservable, but the full analysis is not: strip the
		// base and run it fresh on the key's proper owner.
		g.opt.Log.Printf("base %s unknown fleet-wide; re-analyzing fresh", req.Base)
		req.Base = ""
		if fresh, merr := json.Marshal(req); merr == nil {
			if key, ok, _, kerr := server.RoutingKey(req, g.opt.MaxScale); kerr == nil && ok {
				us, err = g.analyzeHedged(r.Context(), g.ring.order(key), r.URL.RawQuery, fresh, false)
			}
		}
	}
	if err == nil && us.status >= 200 && us.status <= 299 {
		g.lat.observe(time.Since(start))
		var ar server.AnalyzeResponse
		if json.Unmarshal(us.body, &ar) == nil && ar.Cached {
			g.met.cacheHits.Inc()
		}
	}
	g.reply(w, us, err)
}

// ---- query path ----

// handleQuery serves the id-keyed read endpoints (/v1/pointsto,
// /v1/diagnostics). The id IS the routing key, so the walk is the analyze
// path's; a 404 means "not my cache" and moves to the next sibling.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc("query")
	id := r.URL.Query().Get("id")
	if id == "" {
		g.met.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "missing id")
		return
	}
	us, err := g.walk(r.Context(), g.ring.order(id), http.MethodGet, r.URL.Path, r.URL.RawQuery, nil, true)
	g.reply(w, us, err)
}

// ---- gateway observability ----

// gatewayHealth is the /healthz and /readyz document.
type gatewayHealth struct {
	Status   string            `json:"status"`
	Replicas map[string]string `json:"replicas"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, gatewayHealth{Status: "ok", Replicas: g.replicaStates()})
}

// handleReadyz: ready while at least one replica can take new work.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, rp := range g.reps {
		if rp.routable() {
			writeJSON(w, http.StatusOK, gatewayHealth{Status: "ready", Replicas: g.replicaStates()})
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, gatewayHealth{Status: "no replicas available", Replicas: g.replicaStates()})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.met.reg.Write(w)
}

// Stats exposes the counters the cluster harness gates on.
type Stats struct {
	Retries       uint64
	Hedges        uint64
	HedgeWins     uint64
	Failovers     uint64
	CacheHits     uint64
	BreakerOpens  uint64
	BreakerCloses uint64
}

// Stats samples the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Retries:       uint64(g.met.retries.Total()),
		Hedges:        uint64(g.met.hedges.Total()),
		HedgeWins:     uint64(g.met.hedgeWins.Total()),
		Failovers:     uint64(g.met.failovers.Total()),
		CacheHits:     uint64(g.met.cacheHits.Total()),
		BreakerOpens:  uint64(g.met.breakerTran.Total("to", "open")),
		BreakerCloses: uint64(g.met.breakerTran.Total("to", "closed")),
	}
}
