// Package gateway implements fsamgw: a stateless fault-tolerant router in
// front of a fleet of fsamd replicas. Requests are spread by consistent
// hashing on their content address (server.RoutingKey), so each replica's
// result cache stays hot for its share of the keyspace; everything else —
// health probing, retries with backoff, circuit breakers, hedged requests,
// peer cache-fill, drain-respecting failover — exists to keep that routing
// correct and the client oblivious while replicas fail, drain, restart, or
// misbehave.
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
	"net/url"
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
	// HedgeAfter, when positive, is a fixed delay before a cold analyze
	// is hedged on a sibling. 0 selects the adaptive policy: the p99 of
	// recent analyze latencies, never below HedgeFloor.
	HedgeAfter time.Duration
	// HedgeFloor is the minimum hedge delay (default 25ms) so a fast
	// fleet doesn't hedge every request.
	HedgeFloor time.Duration
	// PeekTimeout bounds one cache-peek exchange (default 2s) — peeks
	// never run the pipeline, so a slow peek means a sick replica.
	PeekTimeout time.Duration
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
	if o.HedgeFloor <= 0 {
		o.HedgeFloor = 25 * time.Millisecond
	}
	if o.PeekTimeout <= 0 {
		o.PeekTimeout = 2 * time.Second
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

// affinityBound caps the ProgKey→replica map; oldest entries fall off.
const affinityBound = 4096

// Gateway routes analysis traffic across the replica fleet.
type Gateway struct {
	opt  Options
	ring *ring
	reps []*replica
	met  *gatewayMetrics
	lat  *latencyWindow
	http *http.Client
	mux  *http.ServeMux

	affMu    sync.Mutex
	affinity map[string]int // ProgKey → replica index that served it
	affOrder []string       // FIFO eviction order

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
		opt:      opt,
		ring:     newRing(opt.Replicas, opt.VNodes),
		lat:      newLatencyWindow(512),
		http:     &http.Client{Timeout: client.DefaultTimeout},
		affinity: map[string]int{},
		stop:     make(chan struct{}),
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

// hedgeDelay is the wait before a cold analyze is raced on a sibling.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.opt.HedgeAfter > 0 {
		return g.opt.HedgeAfter
	}
	if p := g.lat.p99(); p > g.opt.HedgeFloor {
		return p
	}
	return g.opt.HedgeFloor
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
	for _, h := range []string{"Content-Type", "Retry-After", "X-Fsamd-Progkey"} {
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

// ---- analyze path ----

var (
	errBreakerOpen = errors.New("circuit breaker open")
	errAllNotFound = errors.New("no candidate holds the entry")
	errNoCandidate = errors.New("no replica available")
)

// analyzeOn runs one analyze against one replica under the same-replica
// retry policy. A nil error means us is the client's final answer (2xx, or
// a 4xx that replaying cannot fix). A non-nil error means this replica is
// out of the running — us, when non-nil, is the last HTTP response seen,
// kept so the chain can propagate an honest 503 if every replica is out.
func (g *Gateway) analyzeOn(ctx context.Context, repIdx int, rawQuery string, body []byte, retry404 bool) (us *upstream, err error) {
	rep := g.reps[repIdx]
	var out, last *upstream
	retryReason := ""
	err = g.opt.Retry.Do(ctx, func(attempt int) (time.Duration, bool, error) {
		if attempt > 0 {
			g.met.retries.Inc(retryReason)
		}
		if !rep.breaker.Allow() {
			return 0, false, errBreakerOpen
		}
		r, rerr := g.roundTrip(ctx, repIdx, http.MethodPost, "/v1/analyze", rawQuery, body)
		if rerr != nil {
			rep.breaker.Record(false)
			retryReason = "connect"
			return 0, true, rerr
		}
		last = r
		hint, _ := resilience.RetryAfter(r.header)
		switch {
		case r.status >= 200 && r.status <= 299:
			rep.breaker.Record(true)
			out = r
			return 0, false, nil
		case resilience.RetryableStatus(r.status):
			// 429/503: explicit backpressure from a live process. Not a
			// breaker failure — tripping on overload would turn a brownout
			// into a blackout.
			rep.breaker.Record(true)
			retryReason = "status"
			return hint, true, fmt.Errorf("replica %s: HTTP %d", rep.name, r.status)
		case r.status == http.StatusNotFound && retry404:
			// Base+patch routing miss: this replica doesn't hold the base.
			rep.breaker.Record(true)
			return 0, false, errAllNotFound
		case r.status >= 500:
			rep.breaker.Record(false)
			return 0, false, fmt.Errorf("replica %s: HTTP %d", rep.name, r.status)
		default:
			// 4xx: the client's fault; every replica would agree.
			rep.breaker.Record(true)
			out = r
			return 0, false, nil
		}
	})
	if err != nil {
		return last, err
	}
	return out, nil
}

// analyzeChain walks the candidate replicas in ring order until one
// produces a final answer. Unavailable replicas (ejected, or degraded
// while healthy siblings exist) are skipped; each move past the first
// attempted replica is a failover.
func (g *Gateway) analyzeChain(ctx context.Context, candidates []int, rawQuery string, body []byte, retry404 bool) (*upstream, error) {
	usable := g.usable(candidates)
	if len(usable) == 0 {
		return nil, errNoCandidate
	}
	var last *upstream
	var lastErr error
	sawNotFound := false
	for i, idx := range usable {
		if i > 0 {
			g.met.failovers.Inc()
		}
		us, err := g.analyzeOn(ctx, idx, rawQuery, body, retry404)
		if err == nil {
			return us, nil
		}
		if errors.Is(err, errAllNotFound) {
			sawNotFound = true
			if us != nil {
				last = us
			}
			continue
		}
		lastErr = err
		if us != nil {
			last = us
		}
		if ctx.Err() != nil {
			return last, ctx.Err()
		}
	}
	if sawNotFound && lastErr == nil {
		return last, errAllNotFound
	}
	if lastErr == nil {
		lastErr = errNoCandidate
	}
	return last, lastErr
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

// analyzeHedged races the primary chain against a rotated sibling chain
// after the hedge delay. Analyses are deterministic and content-addressed,
// so duplicated work converges on the same cache entry; the loser's
// request context is cancelled as soon as a winner lands.
func (g *Gateway) analyzeHedged(ctx context.Context, candidates []int, rawQuery string, body []byte, retry404 bool) (*upstream, error) {
	usable := g.usable(candidates)
	if len(usable) < 2 {
		return g.analyzeChain(ctx, candidates, rawQuery, body, retry404)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		us    *upstream
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(order []int, hedge bool) {
		go func() {
			us, err := g.analyzeChain(hctx, order, rawQuery, body, retry404)
			ch <- result{us, err, hedge}
		}()
	}
	launch(usable, false)
	outstanding := 1

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
			outstanding++
		}
	}
	return last, lastErr
}

// peekChain asks the primary owner — and on a miss, the next ring sibling
// — whether the result is already cached, via ?cachedonly=1 (which never
// runs the pipeline and is served even by draining replicas). Two peeks
// maximum: past the first sibling the expected value of another RTT is
// worse than just analyzing.
func (g *Gateway) peekChain(ctx context.Context, candidates []int, q url.Values, body []byte) *upstream {
	pq := url.Values{}
	for k, v := range q {
		pq[k] = v
	}
	pq.Set("cachedonly", "1")
	rawQuery := pq.Encode()

	// A peek is only worth its latency: if a cache lookup takes longer
	// than the delay after which we would hedge a full analysis, analyzing
	// is the better spend. Bound each peek accordingly.
	bound := 2 * g.hedgeDelay()
	if bound > g.opt.PeekTimeout {
		bound = g.opt.PeekTimeout
	}

	tried := 0
	for pos, idx := range candidates {
		if tried >= 2 {
			break
		}
		rep := g.reps[idx]
		if !rep.peekable() || !rep.breaker.Allow() {
			continue
		}
		tried++
		pctx, cancel := context.WithTimeout(ctx, bound)
		us, err := g.roundTrip(pctx, idx, http.MethodPost, "/v1/analyze", rawQuery, body)
		timedOut := pctx.Err() != nil
		cancel()
		// A timed-out peek says "slow", not "dead" — only a transport
		// failure on a live deadline counts against the breaker.
		rep.breaker.Record(err == nil || timedOut)
		if err != nil || us.status != http.StatusOK {
			continue
		}
		if pos == 0 {
			g.met.cacheHits.Inc("peek_primary")
		} else {
			g.met.cacheHits.Inc("peek_peer")
			g.met.peerFills.Inc()
		}
		return us
	}
	return nil
}

// rememberAffinity records which replica holds a program key, so future
// base+patch requests route to the replica that can actually serve them.
func (g *Gateway) rememberAffinity(progKey string, repIdx int) {
	if progKey == "" {
		return
	}
	g.affMu.Lock()
	defer g.affMu.Unlock()
	if _, ok := g.affinity[progKey]; !ok {
		g.affOrder = append(g.affOrder, progKey)
		if len(g.affOrder) > affinityBound {
			delete(g.affinity, g.affOrder[0])
			g.affOrder = g.affOrder[1:]
		}
	}
	g.affinity[progKey] = repIdx
}

// baseCandidates orders replicas for a base+patch request: the replica
// known (via X-Fsamd-Progkey affinity) to hold the base first, then the
// ring walk on the base key.
func (g *Gateway) baseCandidates(base string) []int {
	order := g.ring.order(base)
	g.affMu.Lock()
	idx, ok := g.affinity[base]
	g.affMu.Unlock()
	if !ok {
		return order
	}
	out := []int{idx}
	for _, o := range order {
		if o != idx {
			out = append(out, o)
		}
	}
	return out
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
	q := r.URL.Query()
	req, err := server.DecodeAnalyze(body, q)
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

	var candidates []int
	if keyable {
		candidates = g.ring.order(key)
	} else {
		candidates = g.baseCandidates(req.Base)
	}

	// A cached result anywhere in the fleet beats re-analyzing: peek the
	// primary owner, then one sibling (peer cache-fill).
	cachedOnly := q.Get("cachedonly") == "1"
	if keyable {
		if us := g.peekChain(r.Context(), candidates, q, body); us != nil {
			g.emit(w, us)
			return
		}
	}
	if cachedOnly {
		writeError(w, http.StatusNotFound, "not cached anywhere in the fleet")
		return
	}

	start := time.Now()
	us, err := g.analyzeHedged(r.Context(), candidates, r.URL.RawQuery, body, !keyable)
	if errors.Is(err, errAllNotFound) && req.Base != "" {
		// No replica holds the base (evicted, or its holder died). The
		// delta is unservable, but the full analysis is not: strip the
		// base and run it fresh on the key's proper owner.
		g.opt.Log.Printf("base %s unknown fleet-wide; re-analyzing fresh", req.Base)
		req.Base = ""
		if fresh, merr := json.Marshal(req); merr == nil {
			if key, ok, _, kerr := server.RoutingKey(req, g.opt.MaxScale); kerr == nil && ok {
				us, err = g.analyzeHedged(r.Context(), g.ring.order(key), r.URL.RawQuery, fresh, false)
				body = fresh
			}
		}
	}
	if err != nil {
		if us != nil {
			// Propagate the honest upstream answer (e.g. 503 + Retry-After
			// from a fleet that is entirely draining).
			g.emit(w, us)
			return
		}
		g.met.upstreamErr.Inc()
		writeError(w, http.StatusBadGateway, "no replica could serve the request: "+err.Error())
		return
	}
	if us.status >= 200 && us.status <= 299 {
		g.lat.observe(time.Since(start))
		g.rememberAffinity(us.header.Get("X-Fsamd-Progkey"), us.replica)
		var ar server.AnalyzeResponse
		if json.Unmarshal(us.body, &ar) == nil && ar.Cached {
			g.met.cacheHits.Inc("replica")
		}
	}
	g.emit(w, us)
}

// ---- query path ----

// handleQuery serves the id-keyed read endpoints (/v1/pointsto,
// /v1/diagnostics). The id IS the routing key, so the owner
// walk mirrors the analyze path; a 404 means "not my cache" and moves to
// the next sibling, and a round with transient failures is replayed so a
// chaos-flaky owner cannot surface a spurious miss to the client.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc("query")
	id := r.URL.Query().Get("id")
	if id == "" {
		g.met.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "missing id")
		return
	}
	candidates := g.ring.order(id)

	const rounds = 3
	var last *upstream
	for round := 0; round < rounds; round++ {
		transient := false
		for _, idx := range g.usable(candidates) {
			rep := g.reps[idx]
			var us *upstream
			retryReason := ""
			err := g.opt.Retry.Do(r.Context(), func(attempt int) (time.Duration, bool, error) {
				if attempt > 0 {
					g.met.retries.Inc(retryReason)
				}
				if !rep.breaker.Allow() {
					return 0, false, errBreakerOpen
				}
				res, rerr := g.roundTrip(r.Context(), idx, http.MethodGet, r.URL.Path, r.URL.RawQuery, nil)
				if rerr != nil {
					rep.breaker.Record(false)
					retryReason = "connect"
					return 0, true, rerr
				}
				us = res
				hint, _ := resilience.RetryAfter(res.header)
				if resilience.RetryableStatus(res.status) {
					rep.breaker.Record(true)
					retryReason = "status"
					return hint, true, fmt.Errorf("replica %s: HTTP %d", rep.name, res.status)
				}
				rep.breaker.Record(res.status < 500)
				return 0, false, nil
			})
			if err != nil {
				transient = true
				continue
			}
			if us.status == http.StatusNotFound {
				last = us
				continue // not this replica's cache; try the next owner
			}
			g.emit(w, us)
			return
		}
		if !transient {
			break // a clean all-404 walk: the id is genuinely unknown
		}
	}
	if last != nil {
		g.emit(w, last)
		return
	}
	g.met.upstreamErr.Inc()
	writeError(w, http.StatusBadGateway, "no replica could serve the query")
	return
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
	PeerFills     uint64
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
		PeerFills:     uint64(g.met.peerFills.Total()),
		CacheHits:     uint64(g.met.cacheHits.Total()),
		BreakerOpens:  uint64(g.met.breakerTran.Total("to", "open")),
		BreakerCloses: uint64(g.met.breakerTran.Total("to", "closed")),
	}
}
