package gateway

import (
	"time"

	"repro/internal/metrics"
)

// gatewayMetrics declares fsamgw's /metrics families. Replica states and
// the hedge delay are sampled from the gateway at scrape time.
type gatewayMetrics struct {
	reg metrics.Registry

	requests    *metrics.Counter // by route: analyze, query
	retries     *metrics.Counter // by reason: connect, status
	failovers   *metrics.Counter
	hedges      *metrics.Counter
	hedgeWins   *metrics.Counter
	cacheHits   *metrics.Counter
	breakerTran *metrics.Counter // by replica and the state entered
	probes      *metrics.Counter // by result: ready, notready, error
	badRequests *metrics.Counter
	upstreamErr *metrics.Counter
}

func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	started := time.Now()
	m := &gatewayMetrics{}
	r := &m.reg
	m.requests = r.Counter("fsamgw_requests_total", "Requests received, by route.", "route")
	m.retries = r.Counter("fsamgw_retries_total", "Same-replica retries, by reason.", "reason")
	m.failovers = r.Counter("fsamgw_failovers_total", "Requests moved to a sibling replica.")
	m.hedges = r.Counter("fsamgw_hedges_total", "Hedged requests launched.")
	m.hedgeWins = r.Counter("fsamgw_hedge_wins_total", "Hedges that answered before the primary.")
	m.cacheHits = r.Counter("fsamgw_cache_hits_total", "Analyze answers a replica served from its cache.")
	m.breakerTran = r.Counter("fsamgw_breaker_transitions_total", "Circuit-breaker state changes.", "replica", "to")
	m.probes = r.Counter("fsamgw_probes_total", "Health probes, by outcome.", "result")
	r.GaugeVecFunc("fsamgw_replica_state", "Replica availability (1 = in rotation).", []string{"replica", "state"},
		func(emit func(float64, ...string)) {
			for name, st := range g.replicaStates() {
				v := 0.0
				if st == "healthy" {
					v = 1
				}
				emit(v, name, st)
			}
		})
	m.badRequests = r.Counter("fsamgw_bad_requests_total", "Requests rejected before routing.")
	m.upstreamErr = r.Counter("fsamgw_upstream_errors_total", "Requests no replica could serve.")
	r.FloatGaugeFunc("fsamgw_hedge_delay_seconds", "Current adaptive hedge delay.", func() float64 { return g.hedgeDelay().Seconds() })
	r.FloatGaugeFunc("fsamgw_uptime_seconds", "Gateway uptime.", func() float64 { return time.Since(started).Seconds() })
	return m
}
