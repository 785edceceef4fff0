// Package client is the typed Go client for the dpfilld HTTP API.
// It is the one HTTP code path of the fleet: cmd/dpfill's remote mode,
// the cluster coordinator's per-worker dispatch and its registry
// heartbeats all speak to workers through a Client, so request
// encoding, error mapping, deadlines, retries and connection reuse
// live in exactly one place.
//
// Request and response schemas are re-exported from internal/server —
// the client and the service can never drift apart.
//
// Failure handling: transport errors and overload statuses (500, 502,
// 503) retry with exponential backoff and full jitter up to
// MaxAttempts; validation errors (4xx) and job deadline overruns
// (504) are terminal, because resending an invalid or already-late
// job can only waste fleet capacity. A request ID placed on the
// context with reqid.With travels on every attempt.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/reqid"
	"repro/internal/server"
)

// Aliases so callers only import the client.
type (
	// FillRequest is the POST /v1/fill payload.
	FillRequest = server.FillRequest
	// FillResponse is the POST /v1/fill result.
	FillResponse = server.FillResponse
	// BatchRequest is the POST /v1/batch payload.
	BatchRequest = server.BatchRequest
	// BatchResponse is the POST /v1/batch result.
	BatchResponse = server.BatchResponse
	// BatchItem is one slot of a batch response.
	BatchItem = server.BatchItem
	// Stats is the GET /stats payload.
	Stats = server.Stats
	// JobStatus is an async job snapshot (the /v1/jobs/{id} payload).
	JobStatus = jobs.Status
	// JobState is an async job's lifecycle position.
	JobState = jobs.State
)

// Config tunes a Client. Only BaseURL is required.
type Config struct {
	// BaseURL locates the service, e.g. "http://fill-worker-3:8080".
	BaseURL string
	// HTTPClient, when non-nil, overrides the underlying HTTP client
	// (the cluster's in-process fallback injects a handler-backed
	// transport here). nil builds one with pooled keep-alive
	// connections sized for a chatty coordinator.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 3; 1 disables retries — the coordinator does its own
	// cross-worker failover instead).
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the backoff: attempt n
	// waits a uniformly jittered duration up to min(Base<<n, Max)
	// (defaults 50ms and 2s).
	RetryBaseDelay, RetryMaxDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	return c
}

// Client is a dpfilld API client. It is safe for concurrent use and
// reuses connections across calls; construct with New.
type Client struct {
	cfg  Config
	base string
	http *http.Client
}

// New validates the base URL and returns a ready Client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q is not an absolute http(s) URL", cfg.BaseURL)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = NewPooledHTTPClient()
	}
	return &Client{cfg: cfg, base: strings.TrimSuffix(u.String(), "/"), http: hc}, nil
}

// NewPooledHTTPClient returns an HTTP client with keep-alive pooling
// sized for a chatty coordinator: many concurrent shards funneled at
// few hosts, where the default per-host idle cap of 2 would thrash
// connections. Share one across the Clients of a fleet so every
// worker benefits from the same pool.
func NewPooledHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 32
	return &http.Client{Transport: tr}
}

// BaseURL returns the client's normalized base URL.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-200 answer from the service.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the service's error payload.
	Message string
	// RequestID echoes the X-Request-ID of the failing response.
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server answered %d: %s (rid=%s)", e.Status, e.Message, e.RequestID)
	}
	return fmt.Sprintf("server answered %d: %s", e.Status, e.Message)
}

// Reply is the status and message a serving tier answers with when it
// passes this error through: a coordinator relays a worker's error
// answer verbatim, as if the caller had spoken to the worker directly.
func (e *APIError) Reply() (int, string) { return e.Status, e.Message }

// ProtocolError is a 200 answer whose body does not decode into the
// expected schema — a worker speaking a different API version, or a
// middlebox mangling the body. It is terminal: every node would
// answer the same way, so retrying only spreads the damage.
type ProtocolError struct {
	// Path is the API path that answered.
	Path string
	// Err is the decode failure.
	Err error
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("client: decoding %s response: %v", e.Path, e.Err)
}

func (e *ProtocolError) Unwrap() error { return e.Err }

// Retryable reports whether err is worth retrying — on this node or,
// for a coordinator, on a different one: transport-level failures and
// overload statuses are; validation errors, schema mismatches, job
// deadline overruns and context cancellation are not.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var proto *ProtocolError
	if errors.As(err, &proto) {
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		switch api.Status {
		case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
			return true
		}
		return false
	}
	// Anything that never produced an HTTP status is a transport
	// failure (dial refused, connection reset, EOF mid-body...).
	return true
}

// Fill runs one cube set through POST /v1/fill.
func (c *Client) Fill(ctx context.Context, req FillRequest) (*FillResponse, error) {
	var out FillResponse
	if err := c.do(ctx, http.MethodPost, "/v1/fill", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch runs many jobs through POST /v1/batch.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PostEncoded posts body, a request already encoded as JSON, to path
// and decodes the answer into out, with Fill's and Batch's retries and
// error mapping. Every attempt sends body unchanged, so a caller that
// encodes a request once — the cluster coordinator, per shard — can
// reuse it across failovers and hedges. Fill and Batch encode with
// json.Marshal, which body must equal for the same answer.
func (c *Client) PostEncoded(ctx context.Context, path string, body []byte, out any) error {
	return c.send(ctx, http.MethodPost, path, body, out, nil)
}

// Healthz checks GET /healthz; nil means the service is live.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches GET /stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do performs one API call with retries: encode once, then per
// attempt send, map the status, and back off with full jitter before
// trying again on retryable failures.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doHeaders(ctx, method, path, in, out, nil)
}

// doHeaders is do with extra request headers on every attempt — the
// idempotency key of a job submit travels this way.
func (c *Client) doHeaders(ctx context.Context, method, path string, in, out any, hdr http.Header) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s request: %w", path, err)
		}
	}
	return c.send(ctx, method, path, body, out, hdr)
}

// send sends body (nil for none) on every attempt, mapping the status
// and backing off with full jitter between retryable failures.
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any, hdr http.Header) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoff(attempt)):
			case <-ctx.Done():
				return fmt.Errorf("client: %s %s: %w (last error: %w)", method, path, ctx.Err(), lastErr)
			}
		}
		lastErr = c.attempt(ctx, method, path, body, out, hdr)
		if lastErr == nil {
			return nil
		}
		if !Retryable(lastErr) {
			return lastErr
		}
	}
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.cfg.MaxAttempts, lastErr)
}

// attempt is one request/response cycle.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any, hdr http.Header) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building %s request: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	// Forward the trace: same trace ID on every hop, this hop's span
	// as the callee's parent — the join key across fleet access logs.
	if tr := reqid.TraceFrom(ctx); tr.ID != "" {
		req.Header.Set(reqid.Header, tr.ID)
		if tr.Span != "" {
			req.Header.Set(reqid.ParentHeader, tr.Span)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Unwrap the context cause so Retryable and callers see
		// cancellation as cancellation, not as a transport failure.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	defer resp.Body.Close()
	// The server's rule for request bodies: an honest Content-Length
	// gives an exact buffer, a lying one costs at most four times what
	// arrived.
	data, err := server.ReadBody(resp.Body, resp.ContentLength, math.MaxInt64)
	if err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	// Any 2xx is a success: the async job API answers 202 Accepted.
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := strings.TrimSpace(string(data))
		var payload struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &payload) == nil && payload.Error != "" {
			msg = payload.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg, RequestID: resp.Header.Get(reqid.Header)}
	}
	if out == nil {
		return nil
	}
	// Fill and batch answers decode in one pass over data, everything
	// else through encoding/json; data is never reused, so decoded
	// strings may alias it.
	if err := server.DecodeAnswer(data, out); err != nil {
		return &ProtocolError{Path: path, Err: err}
	}
	return nil
}

// backoff returns the jittered delay before the given attempt (1 =
// first retry): uniform in (0, min(base<<(attempt-1), max)], the
// "full jitter" scheme that decorrelates a thundering herd.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBaseDelay << (attempt - 1)
	if d <= 0 || d > c.cfg.RetryMaxDelay {
		d = c.cfg.RetryMaxDelay
	}
	return time.Duration(rand.Int64N(int64(d))) + 1
}
