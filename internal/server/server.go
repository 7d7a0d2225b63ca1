package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	fsam "repro"
	"repro/internal/checkers"
	"repro/internal/diag"
	"repro/internal/exitcode"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/solver"
	"repro/internal/workload"
)

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	// Workers bounds concurrent pipeline runs (default GOMAXPROCS).
	Workers int
	// Queue bounds analyze requests waiting for a worker beyond the
	// workers themselves; an arrival past the bound is shed with 429
	// (default 64; <0 admits no waiters beyond the workers).
	Queue int
	// CacheBytes and CacheEntries bound the result cache (defaults 256 MB
	// and 128 entries; <0 disables the respective bound).
	CacheBytes   int64
	CacheEntries int
	// DefaultDeadline applies to analyze requests that set none;
	// MaxDeadline caps what a request may ask for (defaults 30s / 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxSourceBytes bounds the request body (default 4 MB); MaxScale
	// caps the workload scale a request may ask for (default 16).
	MaxSourceBytes int64
	MaxScale       int
	// Log receives one structured line per completed request (default:
	// discard).
	Log *log.Logger
	// Chaos injects server-side faults into the API paths for resilience
	// testing (zero value: no faults). See ChaosConfig.
	Chaos ChaosConfig
}

// Retry-After hints, in seconds, attached to the overload answers so
// well-behaved clients (and the gateway) can back off precisely rather
// than guessing. Queue-full is transient — capacity frees as fast as the
// pipeline drains, so retry soon; draining is terminal for this replica —
// the hint tells a direct client to wait out a restart, while a gateway
// fails over immediately anyway.
const (
	retryAfterQueueFull    = "1"
	retryAfterQueueTimeout = "2"
	retryAfterDraining     = "5"
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue == 0 {
		o.Queue = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 5 * time.Minute
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

// Server is the fsamd HTTP service. Create with New, mount Handler on an
// http.Server, and call BeginDrain before Shutdown for a graceful stop.
type Server struct {
	opt      Options
	cache    *cache
	adm      *admission
	met      *serviceMetrics
	flight   flightGroup
	mux      *http.ServeMux
	chaos    *chaos
	reqSeq   atomic.Uint64
	draining atomic.Bool

	// testAnalyzeStart, when non-nil, runs inside the worker slot before
	// the pipeline; the drain test uses it to hold a request in flight.
	testAnalyzeStart func()
}

// New builds a Server over the given options.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	cacheBytes := uint64(opt.CacheBytes)
	if opt.CacheBytes < 0 {
		cacheBytes = 0
	}
	cacheEntries := opt.CacheEntries
	if cacheEntries < 0 {
		cacheEntries = 0
	}
	s := &Server{
		opt:   opt,
		cache: newCache(cacheBytes, cacheEntries),
		adm:   newAdmission(opt.Workers, opt.Queue),
		mux:   http.NewServeMux(),
	}
	s.met = newServiceMetrics(s)
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/pointsto", s.handlePointsTo)
	s.mux.HandleFunc("/v1/diagnostics", s.handleDiagnostics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if opt.Chaos.Enabled() {
		s.chaos = newChaos(opt.Chaos, s.met.chaosInjected)
	}
	return s
}

// Handler returns the service's HTTP handler: the API mux wrapped in the
// per-request observability layer (request IDs, structured logs, request
// counters and the latency histogram).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		if s.chaos == nil || s.chaos.intercept(rec, r) {
			s.mux.ServeHTTP(rec, r)
		}
		d := time.Since(t0)
		_, route := s.mux.Handler(r)
		s.met.observeRequest(route, rec.status, d)
		s.opt.Log.Printf("req=%d method=%s path=%s status=%d dur=%s cache=%s engine=%s tier=%s",
			id, r.Method, r.URL.Path, rec.status, d.Round(time.Microsecond),
			orDash(rec.Header().Get("X-Fsamd-Cache")), orDash(rec.Header().Get("X-Fsamd-Engine")),
			orDash(rec.Header().Get("X-Fsamd-Precision")))
	})
}

// BeginDrain flips the server into draining: /healthz turns 503 so load
// balancers stop routing here, and new analyze requests are shed with 503
// while in-flight ones run to completion (http.Server.Shutdown waits for
// them).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusRecorder captures the response status for the logging layer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, code int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), ExitCode: code})
}

// handleAnalyze implements POST /v1/analyze: admission control, the
// content-addressed cache, singleflight deduplication, and the pipeline
// run with the request's deadline and budgets mapped onto the engine.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, exitcode.Usage, "POST required")
		return
	}
	req, errStatus, err := decodeAnalyzeRequest(r, s.opt.MaxSourceBytes)
	if err != nil {
		writeError(w, errStatus, exitcode.Usage, "%v", err)
		return
	}
	wantEscape := r.URL.Query().Get("escape") == "1"
	if s.draining.Load() {
		s.met.shed.Inc("draining")
		w.Header().Set("Retry-After", retryAfterDraining)
		writeError(w, http.StatusServiceUnavailable, 0, "server is draining")
		return
	}
	name, src, cfg, deadline, errStatus, err := s.resolve(req)
	if err != nil {
		writeError(w, errStatus, exitcode.Usage, "%v", err)
		return
	}

	// Base+patch: the source is an edit of a cached analysis, re-analyzed
	// incrementally under the base's configuration (which also keys the
	// result, so a later identical from-scratch request hits this entry).
	var baseEnt *entry
	if req.Base != "" {
		var ok bool
		baseEnt, ok = s.cache.peekProgKey(req.Base)
		if !ok {
			writeError(w, http.StatusNotFound, 0,
				"unknown or evicted base %s; re-POST without base", req.Base)
			return
		}
		cfg = baseEnt.a.Config
	}
	key := Key(name, src, cfg)

	// Fast path: a cache hit costs no admission and no pipeline run.
	if ent, ok := s.cache.get(key); ok {
		s.respondAnalyze(w, ent, true, false, wantEscape)
		return
	}

	// fromCache marks the leader re-finding a published entry under the
	// flight (set before the flight completes, read after — ordered by the
	// flight's WaitGroup).
	fromCache := false
	ent, status, err, shared := s.flight.do(key, func() (*entry, int, error) {
		// The admission wait is bounded by the client's patience: the
		// request context dies when the client gives up, and we also cap
		// the wait at the analysis deadline — queueing longer than the
		// work itself may take is never useful.
		actx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		if err := s.adm.acquire(actx); err != nil {
			if errors.Is(err, errQueueFull) {
				s.met.shed.Inc("queue_full")
				return nil, http.StatusTooManyRequests, errors.New("saturated: admission queue full, retry later")
			}
			s.met.shed.Inc("queue_timeout")
			return nil, http.StatusServiceUnavailable, errors.New("saturated: timed out waiting for a worker")
		}
		defer s.adm.release()
		// Re-check under the flight: an earlier leader may have published
		// the entry after our fast-path miss.
		if ent, ok := s.cache.peek(key); ok {
			fromCache = true
			return ent, 0, nil
		}
		if s.testAnalyzeStart != nil {
			s.testAnalyzeStart()
		}
		if baseEnt != nil {
			return s.runDelta(key, name, src, baseEnt, deadline)
		}
		return s.runAnalysis(key, name, src, cfg, deadline)
	})
	if shared {
		s.met.dedup.Inc()
	}
	if err != nil {
		code := exitcode.Failure
		switch status {
		case http.StatusTooManyRequests:
			code = 0
			w.Header().Set("Retry-After", retryAfterQueueFull)
		case http.StatusServiceUnavailable:
			code = 0
			w.Header().Set("Retry-After", retryAfterQueueTimeout)
		}
		writeError(w, status, code, "%v", err)
		return
	}
	s.respondAnalyze(w, ent, fromCache, shared, wantEscape)
}

// runAnalysis executes one pipeline run (the singleflight leader path,
// inside a worker slot) and publishes the entry.
func (s *Server) runAnalysis(key, name, src string, cfg fsam.Config, deadline time.Duration) (*entry, int, error) {
	// The analysis context is detached from the request: followers from
	// the singleflight and future cache hits share this result, so one
	// impatient client must not cancel it for everyone.
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	a, err := fsam.AnalyzeSourceCtx(ctx, name, src, cfg)
	elapsed := time.Since(t0)
	if err != nil {
		if a == nil && !pipeline.ErrCancelled(err) {
			// Compile failure: the source itself is bad.
			return nil, http.StatusUnprocessableEntity, err
		}
		if pipeline.ErrCancelled(err) {
			// The deadline expired before the pre-analysis completed:
			// nothing usable completed. The client's budget, not our
			// fault — 504 mirrors the OOT exit-code convention.
			return nil, http.StatusGatewayTimeout,
				fmt.Errorf("deadline %s expired before any tier completed", deadline)
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	s.met.observeAnalysis(a)
	ent := s.newEntry(key, src, a, elapsed)
	s.cache.put(ent)
	return ent, 0, nil
}

// newEntry builds the cache entry for a completed analysis, indexing its
// program content address so it can serve as the base of later patch
// requests.
func (s *Server) newEntry(key, src string, a *fsam.Analysis, elapsed time.Duration) *entry {
	progKey, _ := a.ProgKey() // empty (unindexed) when not delta-keyable
	return &entry{
		id:      key,
		a:       a,
		progKey: progKey,
		// Accounted footprint: the analysis' own structures plus the
		// retained source and a fixed overhead for the handle itself.
		bytes: a.Stats.Bytes + uint64(len(src)) + 4096,
		resp: AnalyzeResponse{
			ID:           key,
			Engine:       a.Engine,
			Precision:    a.Precision.String(),
			Degraded:     a.Stats.Degraded,
			ExitCode:     exitcode.ForAnalysis(a),
			Stats:        harness.StatsOf(a, elapsed, false),
			PhaseSeconds: phaseSeconds(a),
			ProgKey:      progKey,
		},
	}
}

// runDelta executes one incremental re-analysis against a cached base
// (the singleflight leader path, inside a worker slot) and publishes the
// entry. The result is cached under the same content address a
// from-scratch run of the patched source would use — the delta contract is
// that the two are observably identical.
func (s *Server) runDelta(key, name, src string, baseEnt *entry, deadline time.Duration) (*entry, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	a, rep, err := fsam.AnalyzeDeltaCtx(ctx, baseEnt.a, name, src)
	elapsed := time.Since(t0)
	if err != nil {
		if a == nil && !pipeline.ErrCancelled(err) {
			return nil, http.StatusUnprocessableEntity, err
		}
		if pipeline.ErrCancelled(err) {
			return nil, http.StatusGatewayTimeout,
				fmt.Errorf("deadline %s expired before any tier completed", deadline)
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	s.met.deltas.Inc(rep.Tier)
	s.met.factHits.Add(float64(rep.AdoptedFuncs))
	s.met.factMisses.Add(float64(len(rep.ChangedFuncs)))
	if rep.Tier != fsam.DeltaNoop {
		// A noop adoption runs no pipeline; anything else is a real
		// (partial or full) run worth the analysis series.
		s.met.observeAnalysis(a)
	}
	ent := s.newEntry(key, src, a, elapsed)
	ent.resp.Delta = &DeltaResponse{
		Base:         rep.BaseProgKey,
		Tier:         rep.Tier,
		ChangedFuncs: rep.ChangedFuncs,
		RemovedFuncs: rep.RemovedFuncs,
		AdoptedFuncs: rep.AdoptedFuncs,
		PhasesRun:    rep.PhasesRun,
	}
	s.cache.put(ent)
	return ent, 0, nil
}

// escapeSummary renders a cached analysis' thread-escape classification
// (nil when the result's tier has no thread model). EscapeResult is
// memoized and safe for concurrent readers, so cached replays are cheap.
func escapeSummary(ent *entry) *EscapeSummary {
	esc := ent.a.EscapeResult()
	if esc == nil {
		return nil
	}
	return &EscapeSummary{
		Local:       esc.NumLocal,
		HandedOff:   esc.NumHandedOff,
		Shared:      esc.NumShared,
		PrunedEdges: ent.a.Stats.EscapePrunedEdges,
	}
}

// respondAnalyze replays an entry's response skeleton with the per-request
// Cached/Shared flags (and the ?escape=1 summary, which is per-request
// presentation, not part of the cached skeleton).
func (s *Server) respondAnalyze(w http.ResponseWriter, ent *entry, cached, shared, wantEscape bool) {
	resp := ent.resp
	resp.Cached = cached
	resp.Shared = shared
	if wantEscape {
		resp.Escape = escapeSummary(ent)
	}
	w.Header().Set("X-Fsamd-Engine", resp.Engine)
	w.Header().Set("X-Fsamd-Precision", resp.Precision)
	if resp.Delta != nil {
		w.Header().Set("X-Fsamd-Delta", resp.Delta.Tier)
	}
	if cached {
		w.Header().Set("X-Fsamd-Cache", "hit")
	} else {
		w.Header().Set("X-Fsamd-Cache", "miss")
	}
	writeJSON(w, HTTPStatus(resp.ExitCode), resp)
}

// decodeAnalyzeRequest reads the bounded body and hands it to the shared
// decoder.
func decodeAnalyzeRequest(r *http.Request, maxBody int64) (AnalyzeRequest, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
	if err != nil {
		return AnalyzeRequest{}, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	}
	req, err := DecodeAnalyze(body, r.URL.Query())
	if err != nil {
		return req, http.StatusBadRequest, err
	}
	return req, 0, nil
}

// DecodeAnalyze parses an analyze request body and applies the
// query-parameter overrides: ?deadline= and one parameter per config
// option, parsed and validated by Config.SetOption. Any other parameter
// but ?escape= is an error, as an unknown flag is on the CLIs. It is
// shared with the gateway, which must interpret a request exactly the way
// the replica it routes to will — a disagreement would split identical
// requests across cache entries.
func DecodeAnalyze(body []byte, q url.Values) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("malformed request body: %w", err)
	}
	for name := range q {
		if name != "deadline" && name != "escape" && !slices.Contains(solver.OptionNames(), name) {
			return req, fmt.Errorf("unknown query parameter %q", name)
		}
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return req, fmt.Errorf("deadline: %w", err)
		}
		req.DeadlineMS = d.Milliseconds()
	}
	for _, name := range solver.OptionNames() {
		if v := q.Get(name); v != "" {
			if err := req.Config.SetOption(name, v); err != nil {
				return req, err
			}
		}
	}
	return req, nil
}

// ResolveInputs validates an analyze request and produces the concrete
// pipeline inputs: the position-bearing name, the source text (benchmark
// requests are generated here), and the canonicalized configuration.
// errStatus carries the HTTP status when err is non-nil. Exported for the
// gateway, which resolves requests the same way to compute the content
// address a replica will cache the result under.
func ResolveInputs(req AnalyzeRequest, maxScale int) (name, src string, cfg fsam.Config, errStatus int, err error) {
	if err := req.Config.Validate(); err != nil {
		return "", "", cfg, http.StatusBadRequest, err
	}
	switch {
	case req.Source != "" && req.Benchmark != "":
		return "", "", cfg, http.StatusBadRequest, errors.New("source and benchmark are mutually exclusive")
	case req.Source == "" && req.Benchmark == "":
		return "", "", cfg, http.StatusBadRequest, errors.New("one of source or benchmark is required")
	case req.Benchmark != "":
		scale := req.Scale
		if scale <= 0 {
			scale = 1
		}
		if scale > maxScale {
			return "", "", cfg, http.StatusBadRequest,
				fmt.Errorf("scale %d exceeds the server cap %d", scale, maxScale)
		}
		src, err = workload.Generate(req.Benchmark, scale)
		if err != nil {
			// The workload package's unknown-name error, surfaced verbatim.
			return "", "", cfg, http.StatusNotFound, err
		}
		name = req.Benchmark + ".mc"
	default:
		src = req.Source
		name = req.Name
		if name == "" {
			name = "request.mc"
		}
	}
	return name, src, req.Config.Normalize(), 0, nil
}

// RoutingKey computes the content address an analyze request's result will
// be cached under, for gateway-side consistent-hash routing. Base+patch
// requests are not keyable without the base entry's configuration (the base
// governs the config, and only the replica holding it knows the config);
// they report ok=false and are routed by their Base program key instead.
func RoutingKey(req AnalyzeRequest, maxScale int) (key string, ok bool, errStatus int, err error) {
	if req.Base != "" {
		return "", false, 0, nil
	}
	name, src, cfg, st, err := ResolveInputs(req, maxScale)
	if err != nil {
		return "", false, st, err
	}
	return Key(name, src, cfg), true, 0, nil
}

// resolve produces the pipeline inputs plus the server-policy deadline.
func (s *Server) resolve(req AnalyzeRequest) (name, src string, cfg fsam.Config, deadline time.Duration, errStatus int, err error) {
	name, src, cfg, errStatus, err = ResolveInputs(req, s.opt.MaxScale)
	if err != nil {
		return "", "", cfg, 0, errStatus, err
	}
	deadline = s.opt.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.opt.MaxDeadline {
		deadline = s.opt.MaxDeadline
	}
	return name, src, cfg, deadline, 0, nil
}

// lookup resolves ?id= against the cache for the query endpoints.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, exitcode.Usage, "missing id parameter")
		return nil, false
	}
	ent, ok := s.cache.peek(id)
	if !ok {
		writeError(w, http.StatusNotFound, 0,
			"unknown or evicted analysis id %s; re-POST /v1/analyze", id)
		return nil, false
	}
	w.Header().Set("X-Fsamd-Engine", ent.resp.Engine)
	w.Header().Set("X-Fsamd-Precision", ent.resp.Precision)
	w.Header().Set("X-Fsamd-Cache", "hit")
	return ent, true
}

// handlePointsTo implements GET /v1/pointsto?id=...&global=NAME.
func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.lookup(w, r)
	if !ok {
		return
	}
	global := r.URL.Query().Get("global")
	if global == "" {
		writeError(w, http.StatusBadRequest, exitcode.Usage, "missing global parameter")
		return
	}
	pt, err := ent.a.PointsToGlobal(global)
	if err != nil {
		writeError(w, http.StatusNotFound, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, PointsToResponse{
		ID:        ent.id,
		Global:    global,
		PointsTo:  pt,
		Precision: ent.resp.Precision,
	})
}

// handleDiagnostics implements GET /v1/diagnostics?id=...[&checkers=a,b].
// The checker suite runs once per cached analysis (memoized on the entry's
// *fsam.Analysis); repeated requests — and requests selecting different
// checker subsets — answer from that one run, so fingerprints are stable
// across queries. An unknown checker ID is a usage error; an analysis the
// suite cannot run on at all conflicts with the cached result's tier.
func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var ids []string
	if q := r.URL.Query().Get("checkers"); q != "" {
		for _, id := range strings.Split(q, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	res, err := ent.a.Diagnostics(ids...)
	if err != nil {
		if errors.Is(err, checkers.ErrUnknownChecker) {
			writeError(w, http.StatusBadRequest, exitcode.Usage, "%v", err)
			return
		}
		writeError(w, http.StatusConflict, ent.resp.ExitCode, "%v", err)
		return
	}
	s.met.diagRequests.Inc()
	for _, d := range res.Diags {
		s.met.diagFindings.Inc(d.Checker)
	}
	diags := res.Diags
	if diags == nil {
		diags = []diag.Diagnostic{}
	}
	writeJSON(w, http.StatusOK, DiagnosticsResponse{
		ID:          ent.id,
		Count:       len(res.Diags),
		Diagnostics: diags,
		Skipped:     res.Skipped,
		Suppressed:  res.Suppressed,
		Precision:   ent.resp.Precision,
	})
}

// handleHealthz implements GET /healthz — liveness. The process is up and
// answering; routing decisions belong to /readyz. Always 200 (a draining
// daemon is alive: it is finishing in-flight work), with the status field
// reporting the drain for humans.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.stats()
	resp := HealthResponse{
		Status:        "ok",
		Inflight:      s.adm.inflight(),
		Queued:        s.adm.queued(),
		CacheEntries:  st.Entries,
		UptimeSeconds: time.Since(s.met.started).Seconds(),
	}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz implements GET /readyz — readiness. 503 while draining or
// while the admission queue is saturated, so load balancers and the
// gateway stop routing new work here without concluding the process is
// dead (that distinction is exactly why liveness and readiness are split:
// ejecting on liveness would abort in-flight work a drain is protecting).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.stats()
	resp := HealthResponse{
		Status:        "ready",
		Inflight:      s.adm.inflight(),
		Queued:        s.adm.queued(),
		CacheEntries:  st.Entries,
		UptimeSeconds: time.Since(s.met.started).Seconds(),
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterDraining)
	case s.adm.saturated():
		resp.Status = "saturated"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterQueueFull)
	}
	writeJSON(w, status, resp)
}

// handleMetrics implements GET /metrics (Prometheus text exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.reg.Write(w)
}
