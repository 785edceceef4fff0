package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reqid"
	"repro/internal/server"
)

// newTestPair mounts a real fill service and a client pointed at it.
func newTestPair(t *testing.T, cfg Config) (*server.Server, *Client) {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	cfg.BaseURL = ts.URL
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, u := range []string{"", "not a url", "/relative", "host-only"} {
		if _, err := New(Config{BaseURL: u}); err == nil {
			t.Errorf("base URL %q accepted", u)
		}
	}
	if _, err := New(Config{BaseURL: "http://localhost:8080/"}); err != nil {
		t.Fatalf("valid base URL rejected: %v", err)
	}
}

func TestFillRoundTrip(t *testing.T) {
	_, c := newTestPair(t, Config{})
	resp, err := c.Fill(context.Background(), FillRequest{
		Name:  "quad",
		Cubes: []string{"00", "XX", "XX", "11"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Peak != 1 || resp.Rows != 4 || resp.Filler != "DP-fill" {
		t.Fatalf("response: %+v", resp)
	}
	if len(resp.Cubes) != 4 {
		t.Fatalf("cubes: %v", resp.Cubes)
	}
}

func TestBatchGridHealthzStats(t *testing.T) {
	_, c := newTestPair(t, Config{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	batch, err := c.Batch(ctx, BatchRequest{Jobs: []FillRequest{
		{Name: "a", Cubes: []string{"0XX0", "1XX1"}},
		{Name: "b", Cubes: []string{"0z"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Failed != 1 {
		t.Fatalf("batch: %+v", batch)
	}
	if batch.Results[0].Result == nil || batch.Results[0].Result.Name != "a" {
		t.Fatalf("batch order: %+v", batch.Results)
	}
	grid, err := c.Grid(ctx, GridRequest{Cubes: []string{"0XX0XX", "XX1XX0", "1XXX0X"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Peaks) == 0 || grid.Best == "" {
		t.Fatalf("grid: %+v", grid)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsServed == 0 || st.EngineWorkers != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestValidationErrorIsTerminal(t *testing.T) {
	var hits atomic.Int64
	srv, serr := server.New(server.Config{})
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Fill(context.Background(), FillRequest{Cubes: []string{"012"}})
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if Retryable(err) {
		t.Fatal("400 reported as retryable")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("client retried a validation error: %d attempts", n)
	}
}

// TestRetriesOverloadThenSucceeds pins the retry loop: two 503s, then
// the real service answers.
func TestRetriesOverloadThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	srv, serr := server.New(server.Config{})
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Fill(context.Background(), FillRequest{Cubes: []string{"0X", "X1"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Peak < 0 || hits.Load() != 3 {
		t.Fatalf("peak %d after %d attempts", resp.Peak, hits.Load())
	}
}

func TestRetriesExhaustedSurfaceLastError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"still overloaded"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Fill(context.Background(), FillRequest{Cubes: []string{"0X"}})
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("%d attempts, want 2", hits.Load())
	}
}

func TestTransportErrorRetryable(t *testing.T) {
	// A server that is immediately closed: every dial fails.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	c, err := New(Config{BaseURL: url, MaxAttempts: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Healthz(context.Background())
	if err == nil {
		t.Fatal("dead server answered")
	}
	var api *APIError
	if errors.As(err, &api) {
		t.Fatalf("transport failure surfaced as APIError: %v", err)
	}
}

func TestContextCancellationNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = c.Healthz(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if Retryable(err) {
		t.Fatal("context deadline reported as retryable")
	}
	if hits.Load() != 1 {
		t.Fatalf("cancelled call attempted %d times", hits.Load())
	}
}

// TestRequestIDPropagation pins the end-to-end ID path: the context's
// ID reaches the worker and comes back on the response, including on
// error responses.
func TestRequestIDPropagation(t *testing.T) {
	var seen atomic.Value
	srv, serr := server.New(server.Config{})
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(reqid.Header))
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := reqid.With(context.Background(), "rid-42")
	if _, err := c.Fill(ctx, FillRequest{Cubes: []string{"0X", "X1"}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := seen.Load().(string); got != "rid-42" {
		t.Fatalf("worker saw request ID %q, want rid-42", got)
	}
	_, err = c.Fill(ctx, FillRequest{Cubes: []string{"012"}})
	var api *APIError
	if !errors.As(err, &api) || api.RequestID != "rid-42" {
		t.Fatalf("error did not echo the request ID: %v", err)
	}
}

// TestProtocolErrorTerminal: a 200 body that does not decode is a
// schema mismatch, not a transport blip — no retries, not retryable.
func TestProtocolErrorTerminal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Write([]byte(`this is not json`))
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Stats(context.Background())
	var proto *ProtocolError
	if !errors.As(err, &proto) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if Retryable(err) {
		t.Fatal("schema mismatch reported as retryable")
	}
	if hits.Load() != 1 {
		t.Fatalf("decode failure retried: %d attempts", hits.Load())
	}
}

func TestBackoffBounded(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", RetryBaseDelay: 10 * time.Millisecond, RetryMaxDelay: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt < 20; attempt++ {
		d := c.backoff(attempt)
		if d <= 0 || d > 40*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v out of (0, 40ms]", attempt, d)
		}
	}
}

// TestClientEncodesWithJSONMarshal pins Fill and Batch to send
// json.Marshal of their request, byte for byte, on strings that need
// escapes as well as on plain ones. Callers that measure the client's
// encode (the benchmark's load generator among them) see the same work
// whatever PostEncoded's callers do.
func TestClientEncodesWithJSONMarshal(t *testing.T) {
	sent := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		sent <- body
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s sent Content-Type %q", r.URL.Path, ct)
		}
		w.Write([]byte("{}"))
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []FillRequest{
		{},
		{Name: "job-1", Cubes: []string{"0X1", "1X0"}, Orderer: "i", Filler: "mt", Seed: -3, Priority: 2, TimeoutMillis: 1500, OmitCubes: true, Debug: true},
		{Name: "<a&b> ", Cubes: []string{}, STIL: "STIL 1.0;\n\"x\"\\\x7f", Seed: 1},
		{Name: "größe\xff", Cubes: []string{"", "01X"}},
	}
	ctx := context.Background()
	check := func(what string, req any) {
		t.Helper()
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := <-sent; !bytes.Equal(got, want) {
			t.Fatalf("%s sent\n %q\nwant json.Marshal\n %q", what, got, want)
		}
	}
	for _, j := range jobs {
		if _, err := c.Fill(ctx, j); err != nil {
			t.Fatal(err)
		}
		check("Fill", j)
	}
	for _, b := range []BatchRequest{{}, {Jobs: []FillRequest{}}, {Jobs: jobs, Debug: true}} {
		if _, err := c.Batch(ctx, b); err != nil {
			t.Fatal(err)
		}
		check("Batch", b)
	}
}
