// Package client is the Go client for the fsamd analysis service. It
// shares the wire types with internal/server, so the CLIs (`fsam -server`,
// `fsamcheck -server`) and the end-to-end tests speak exactly the schema
// the daemon serves.
//
// The client is resilient by default: requests carry a transport timeout
// (DefaultTimeout) so a hung daemon can never wedge a caller, and the
// analysis/query paths retry transient failures — transport errors, 429
// queue-full, 503 draining/saturated — with exponential backoff, honoring
// the daemon's Retry-After hints. Analyses are content-addressed and
// deterministic, so replaying a request is always safe. Health and Ready
// never retry: for a probe, the 503 is the answer.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
)

// DefaultTimeout bounds one HTTP exchange end to end. It sits above the
// daemon's default -maxdeadline (5m) so a legitimately long analysis is
// never cut off client-side, while a dead or wedged connection still
// surfaces as an error instead of hanging forever.
const DefaultTimeout = 6 * time.Minute

// defaultHTTPClient is shared by every Client that does not bring its own
// transport, so connection pools are reused across Client values.
var defaultHTTPClient = &http.Client{Timeout: DefaultTimeout}

// APIError is a non-2xx response decoded into the service's error schema.
type APIError struct {
	Status   int
	Message  string
	ExitCode int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fsamd: HTTP %d: %s", e.Status, e.Message)
}

// Client talks to one fsamd instance (or to a fleet through fsamgw —
// the gateway serves the same wire schema).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTP is the transport. nil selects a shared client with
	// DefaultTimeout; note that http.DefaultClient has NO timeout.
	HTTP *http.Client
	// Retry governs transient-failure handling on the analysis and query
	// paths. nil selects the resilience defaults (3 attempts, exponential
	// backoff from 50ms). Set &resilience.Policy{MaxAttempts: 1} to
	// disable retries entirely.
	Retry *resilience.Policy
}

// New returns a Client for the given base URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) policy() resilience.Policy {
	if c.Retry != nil {
		return *c.Retry
	}
	return resilience.Policy{}
}

// readAPIError drains a non-2xx body into the error schema, falling back
// to the raw text for proxies that answer plain strings.
func readAPIError(resp *http.Response) *APIError {
	var apiErr server.ErrorResponse
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(body, &apiErr) != nil || apiErr.Error == "" {
		apiErr.Error = strings.TrimSpace(string(body))
	}
	return &APIError{Status: resp.StatusCode, Message: apiErr.Error, ExitCode: apiErr.ExitCode}
}

// attempt runs one HTTP exchange and classifies the outcome for the retry
// policy: transport errors and 429/503 invite a retry (with any Retry-After
// hint), everything else is final.
func (c *Client) attempt(req *http.Request, out any) (hint time.Duration, retryable bool, err error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		hint, _ := resilience.RetryAfter(resp.Header)
		return hint, resilience.RetryableStatus(resp.StatusCode), readAPIError(resp)
	}
	if out == nil {
		return 0, false, nil
	}
	return 0, false, json.NewDecoder(resp.Body).Decode(out)
}

// doRetry drives build/attempt under the retry policy. build constructs a
// fresh request per attempt (a consumed body cannot be replayed).
func (c *Client) doRetry(ctx context.Context, build func() (*http.Request, error), out any) error {
	return c.policy().Do(ctx, func(int) (time.Duration, bool, error) {
		req, err := build()
		if err != nil {
			return 0, false, err
		}
		return c.attempt(req, out)
	})
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}, out)
}

// Analyze submits a source or benchmark for analysis. A degraded result is
// a success: check resp.ExitCode / resp.Precision for the tier. Transient
// failures (transport errors, 429, 503) are retried per c.Retry.
func (c *Client) Analyze(ctx context.Context, areq server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	body, err := json.Marshal(areq)
	if err != nil {
		return nil, err
	}
	var resp server.AnalyzeResponse
	err = c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/analyze", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// AnalyzeDelta submits an edited source as a patch against a completed
// analysis named by its program content address (AnalyzeResponse.ProgKey).
// The server reuses the base analysis as far as the edit's tier allows;
// resp.Delta names the tier and the functions the edit changed. An unknown
// or evicted base answers *APIError with Status 404 — re-submit via
// Analyze.
func (c *Client) AnalyzeDelta(ctx context.Context, base string, areq server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	areq.Base = base
	return c.Analyze(ctx, areq)
}

// PointsTo queries the points-to set of a global on a cached analysis.
func (c *Client) PointsTo(ctx context.Context, id, global string) (*server.PointsToResponse, error) {
	var resp server.PointsToResponse
	q := url.Values{"id": {id}, "global": {global}}
	if err := c.get(ctx, "/v1/pointsto", q, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Diagnostics runs the checker suite over a cached analysis. An empty
// checkers list runs every registered checker; naming a subset filters the
// (server-memoized) full run, so fingerprints match across selections.
func (c *Client) Diagnostics(ctx context.Context, id string, checkers []string) (*server.DiagnosticsResponse, error) {
	q := url.Values{"id": {id}}
	if len(checkers) > 0 {
		q.Set("checkers", strings.Join(checkers, ","))
	}
	var resp server.DiagnosticsResponse
	if err := c.get(ctx, "/v1/diagnostics", q, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// getHealth fetches a health-shaped endpoint exactly once (probes never
// retry: the 503 is the answer) and decodes the HealthResponse the daemon
// writes on every status.
func (c *Client) getHealth(ctx context.Context, path string) (*server.HealthResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	var hr server.HealthResponse
	if json.Unmarshal(body, &hr) != nil || hr.Status == "" {
		return nil, resp.StatusCode, &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return &hr, resp.StatusCode, nil
}

// Health fetches /healthz — liveness. The daemon answers 200 whenever the
// process serves, including during a drain (Status "draining").
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	resp, _, err := c.getHealth(ctx, "/healthz")
	return resp, err
}

// Ready fetches /readyz — readiness. ready reports whether the daemon
// accepts new analysis work; when it does not, resp.Status says why
// ("draining", "saturated"). err is reserved for transport and protocol
// failures — a 503 with a well-formed body is not an error.
func (c *Client) Ready(ctx context.Context) (resp *server.HealthResponse, ready bool, err error) {
	resp, status, err := c.getHealth(ctx, "/readyz")
	if err != nil {
		return nil, false, err
	}
	return resp, status == http.StatusOK, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}
