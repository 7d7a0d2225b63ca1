package server

import (
	"strconv"
	"time"

	fsam "repro"
	"repro/internal/metrics"
)

// latencyBuckets are the request-duration histogram bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// serviceMetrics declares fsamd's /metrics families. Counters the service
// observes are held here; the cache, admission and drain
// figures are read from their owners at scrape time.
type serviceMetrics struct {
	reg     metrics.Registry
	started time.Time

	requests *metrics.Counter
	latency  *metrics.Histogram
	// Pipeline runs actually executed (cache hits and deduplicated
	// followers do not count), their per-phase wall time, and the
	// engine and precision tier each landed on.
	analyses, phaseSeconds, engines, tiers *metrics.Counter
	// Delta requests by tier, and the functions they carried whose
	// content address was unchanged (hits) or changed (misses).
	deltas, factHits, factMisses *metrics.Counter
	shed, chaosInjected          *metrics.Counter
	// Diagnostics requests served and findings returned per checker
	// (cached suite runs count every time they are served, so the series
	// tracks what clients saw, not pipeline work).
	diagRequests, diagFindings *metrics.Counter
	dedup                      *metrics.Counter
}

func newServiceMetrics(s *Server) *serviceMetrics {
	m := &serviceMetrics{started: time.Now()}
	r := &m.reg
	m.requests = r.Counter("fsamd_requests_total", "Completed HTTP requests by route and status.", "path", "code")
	m.latency = r.Histogram("fsamd_request_duration_seconds", "Request latency, all endpoints.", latencyBuckets)

	cache := func(f func(cacheStats) float64) func() float64 {
		return func() float64 { return f(s.cache.stats()) }
	}
	r.CounterFunc("fsamd_cache_hits_total", "Analyze requests served from the result cache.", cache(func(c cacheStats) float64 { return float64(c.Hits) }))
	r.CounterFunc("fsamd_cache_misses_total", "Analyze requests the result cache could not serve.", cache(func(c cacheStats) float64 { return float64(c.Misses) }))
	r.CounterFunc("fsamd_cache_evictions_total", "Result-cache entries evicted by the byte or entry bound.", cache(func(c cacheStats) float64 { return float64(c.Evictions) }))
	r.GaugeFunc("fsamd_cache_bytes", "Accounted bytes held by the result cache.", cache(func(c cacheStats) float64 { return float64(c.Bytes) }))
	r.GaugeFunc("fsamd_cache_entries", "Entries held by the result cache.", cache(func(c cacheStats) float64 { return float64(c.Entries) }))
	r.FloatGaugeFunc("fsamd_cache_hit_ratio", "Hits over analyze-path lookups.", cache(cacheStats.HitRatio))

	m.factHits = r.Counter("fsamd_facts_hits_total", "Functions of delta requests whose content address is unchanged from the base.")
	m.factMisses = r.Counter("fsamd_facts_misses_total", "Functions of delta requests whose content address changed or is new.")

	m.deltas = r.Counter("fsamd_delta_total", "Incremental (base+patch) analyses by delta tier.", "tier")
	m.analyses = r.Counter("fsamd_analyses_total", "Pipeline runs (cache hits and deduplicated requests excluded).")
	m.phaseSeconds = r.FloatCounter("fsamd_phase_seconds_total", "Cumulative pipeline wall time by top-level phase.", "phase")
	m.engines = r.Counter("fsamd_engine_total", "Analyses by the engine that produced the result.", "engine")
	m.tiers = r.Counter("fsamd_precision_total", "Analyses by the tier the degradation ladder landed on.", "tier")
	m.shed = r.Counter("fsamd_shed_total", "Analyze requests shed by admission control.", "reason")
	m.chaosInjected = r.Counter("fsamd_chaos_injected_total", "Faults injected by the -chaos layer, by kind.", "kind")
	m.diagRequests = r.Counter("fsamd_diagnostics_requests_total", "Diagnostics requests served.")
	m.diagFindings = r.Counter("fsamd_diagnostics_findings_total", "Findings returned by the diagnostics endpoint, by checker.", "checker")
	m.dedup = r.Counter("fsamd_dedup_total", "Analyze requests deduplicated onto an in-flight identical solve.")

	r.GaugeFunc("fsamd_inflight", "Analyses holding a worker slot.", func() float64 { return float64(s.adm.inflight()) })
	r.GaugeFunc("fsamd_queued", "Analyze requests waiting for a worker slot.", func() float64 { return float64(s.adm.queued()) })
	r.GaugeFunc("fsamd_draining", "1 while the server drains for shutdown, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	r.FloatGaugeFunc("fsamd_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(m.started).Seconds() })
	return m
}

// observeRequest records one completed request under its route pattern
// ("unmatched" when no route matched, so outside input cannot mint
// series).
func (m *serviceMetrics) observeRequest(route string, status int, d time.Duration) {
	if route == "" {
		route = "unmatched"
	}
	m.requests.Inc(route, strconv.Itoa(status))
	m.latency.Observe(d.Seconds())
}

// observeAnalysis records one pipeline run's engine, tier and per-phase
// times. Dotted sub-phases (one per abstract thread of the submitted
// program) stay out of the exposition; their time is in their parent's.
func (m *serviceMetrics) observeAnalysis(a *fsam.Analysis) {
	m.analyses.Inc()
	m.tiers.Inc(a.Precision.String())
	m.engines.Inc(a.Engine)
	for _, p := range a.Stats.Phases {
		if !p.Subphase() {
			m.phaseSeconds.Add(p.Time.Seconds(), p.Name)
		}
	}
}
