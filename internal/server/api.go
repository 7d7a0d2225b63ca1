// Package server implements fsamd, the long-running analysis service: an
// HTTP/JSON front end over the staged FSAM pipeline with a
// content-addressed result cache, admission control mapped onto the
// engine's resource budgets and the precision-degradation ladder, request
// deduplication, and Prometheus-text observability.
//
// The service view of the pipeline: analyses are expensive, deterministic
// and repeatedly requested on near-identical inputs, so results are cached
// under a content address — the SHA-256 of the source plus the
// canonicalized Config (fsam.Config.Normalize / Canonical) — and every
// query endpoint (points-to, diagnostics) answers from the cached
// *fsam.Analysis, whose query methods are safe for concurrent readers.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/exitcode"
	"repro/internal/harness"
)

// AnalyzeRequest is the body of POST /v1/analyze. Exactly one of Source or
// Benchmark must be set: Source carries MiniC text directly, Benchmark
// names a program of the internal/workload suite (generated server-side at
// Scale). The query parameter ?deadline= and one parameter per config
// option (solver.OptionNames: ?engine=, ?membudget=, ...) override the
// corresponding fields, so budgets can be imposed without re-serializing
// the body.
type AnalyzeRequest struct {
	// Name labels the source in positions and reports (default "request.mc").
	Name string `json:"name,omitempty"`
	// Source is MiniC program text.
	Source string `json:"source,omitempty"`
	// Base, when set, is the program content address (AnalyzeResponse.ProgKey)
	// of a completed analysis still resident in the server cache; Source is
	// then treated as an edit of that program and re-analyzed incrementally
	// (fsam.AnalyzeDeltaCtx picks the noop, iso or semantic tier). The
	// base's configuration governs the run — Config fields in a base+patch
	// request are ignored. An unknown or evicted base answers 404; re-POST
	// without base.
	Base string `json:"base,omitempty"`
	// Benchmark is an internal/workload suite name (e.g. "word_count").
	Benchmark string `json:"benchmark,omitempty"`
	// Scale is the workload scale factor (default 1, server-capped).
	Scale int `json:"scale,omitempty"`
	// Config selects analysis variants and resource budgets. The engine,
	// memory model and escape-prune mode all participate in the content
	// address, so one source under two engines (or two models, or pruning
	// on and off) is two cache entries. NoDegrade never reaches the wire:
	// the service always runs with the degradation ladder.
	Config fsam.Config `json:"config"`
	// DeadlineMS bounds the analysis wall time in milliseconds (0 uses the
	// server default; server-capped). The deadline rides the request
	// context into every fixpoint loop; tripping it degrades the result
	// down the precision ladder rather than failing the request.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// AnalyzeResponse answers POST /v1/analyze. A degraded run is a success
// (HTTP 200) whose ExitCode carries the tier under the repo's exit-code
// convention — the service never turns a budget trip into a 5xx.
type AnalyzeResponse struct {
	// ID is the content address of the result ("sha256:..."); subsequent
	// query requests pass it back.
	ID string `json:"id"`
	// Cached is true when the result was served from the cache without a
	// pipeline run.
	Cached bool `json:"cached"`
	// Shared is true when this request was deduplicated onto another
	// in-flight identical submission (one solve, many responses).
	Shared bool `json:"shared,omitempty"`
	// Engine is the backend that produced the result — after degradation,
	// the ladder rung that landed, not the one requested.
	Engine string `json:"engine"`
	// Precision is the tier the ladder landed on; Degraded carries the
	// reason when below the requested engine's tier.
	Precision string `json:"precision"`
	Degraded  string `json:"degraded,omitempty"`
	// ExitCode is the repo-wide exit-code convention value (0 at the
	// requested tier, 4 Andersen-only, 5 CFG-free, 6 thread-modular; 3 is
	// reserved).
	ExitCode int `json:"exit_code"`
	// Stats is the shared harness statistics schema (fsam_ns is the
	// server-observed pipeline wall time for the run that produced the
	// entry, not this request's latency).
	Stats harness.FSAMStats `json:"stats"`
	// PhaseSeconds is per-phase wall time from the pipeline report.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// ProgKey is the program-level content address of the analyzed source —
	// the value a follow-up request passes as Base to re-analyze an edit
	// incrementally. Empty only when the analysis cannot be delta-keyed.
	ProgKey string `json:"prog_key,omitempty"`
	// Delta describes the incremental run that produced this entry (nil for
	// from-scratch runs). On a cached replay it still describes the original
	// producing run, not this request.
	Delta *DeltaResponse `json:"delta,omitempty"`
	// Escape is the thread-escape classification summary, present only when
	// the request asked for it with ?escape=1. Nil also when the result's
	// tier has no thread model (andersen/cfgfree) — absence, not zeros.
	Escape *EscapeSummary `json:"escape,omitempty"`
}

// EscapeSummary is the ?escape=1 view of the thread-escape classification
// of the analyzed program's abstract objects.
type EscapeSummary struct {
	Local       int `json:"local"`
	HandedOff   int `json:"handedoff"`
	Shared      int `json:"shared"`
	PrunedEdges int `json:"pruned_edges"`
}

// DeltaResponse is the wire form of fsam.DeltaReport: the tier an
// incremental (base+patch) analysis landed in, the functions the edit
// changed, and the phases it ran.
type DeltaResponse struct {
	// Base is the program content address the patch was applied against.
	Base string `json:"base"`
	// Tier is "noop", "iso" or "semantic" (see fsam.AnalyzeDeltaCtx).
	Tier string `json:"tier"`
	// ChangedFuncs and RemovedFuncs name the functions whose content
	// address the edit changed (or added) and removed; AdoptedFuncs counts
	// those whose content address is unchanged.
	ChangedFuncs []string `json:"changed_funcs,omitempty"`
	RemovedFuncs []string `json:"removed_funcs,omitempty"`
	AdoptedFuncs int      `json:"adopted_funcs"`
	// PhasesRun lists the pipeline phases that actually executed.
	PhasesRun []string `json:"phases_run,omitempty"`
}

// PointsToResponse answers GET /v1/pointsto.
type PointsToResponse struct {
	ID        string   `json:"id"`
	Global    string   `json:"global"`
	PointsTo  []string `json:"points_to"`
	Precision string   `json:"precision"`
}

// DiagnosticsResponse answers GET /v1/diagnostics: the checker suite's
// finalized findings over a cached analysis. Checkers unavailable at the
// result's precision tier appear in Skipped rather than failing the
// request; Suppressed counts findings removed by inline fsam:ignore
// comments in the analyzed source.
type DiagnosticsResponse struct {
	ID          string            `json:"id"`
	Count       int               `json:"count"`
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
	Skipped     map[string]string `json:"skipped,omitempty"`
	Suppressed  int               `json:"suppressed,omitempty"`
	Precision   string            `json:"precision"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	Inflight      int64   `json:"inflight"`
	Queued        int64   `json:"queued"`
	CacheEntries  int     `json:"cache_entries"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// ExitCode carries the exit-code convention value when the error has
	// one (e.g. 1 for a compile failure, 2 for a malformed request).
	ExitCode int `json:"exit_code,omitempty"`
}

// HTTPStatus maps the repo's process exit-code convention onto HTTP
// statuses. Degraded tiers are successes: the request was served, the
// response labels the tier — the HTTP analogue of a nonzero-but-not-failure
// exit code.
func HTTPStatus(code int) int {
	if code == exitcode.OK || exitcode.IsDegraded(code) {
		return http.StatusOK
	}
	switch code {
	case exitcode.Usage:
		return http.StatusBadRequest
	case exitcode.Failure:
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// Key computes the content address of an analysis result: the SHA-256 of
// the canonicalized configuration and the exact source text (the name
// participates because it appears in positions, and therefore in race and
// leak reports). Two requests agree on Key iff the pipeline would compute
// identical results for them.
func Key(name, src string, cfg fsam.Config) string {
	h := sha256.New()
	h.Write([]byte(cfg.Canonical()))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// phaseSeconds renders the facade's per-phase times for responses, summing
// a phase a degraded run's fallback re-ran.
func phaseSeconds(a *fsam.Analysis) map[string]float64 {
	out := map[string]float64{}
	for _, p := range a.Stats.Phases {
		if p.Time > 0 {
			out[p.Name] += p.Time.Seconds()
		}
	}
	return out
}
