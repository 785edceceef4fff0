package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// stack is one serving stack stood up in-process on loopback: a
// dpfilld server, or a coordinator fronting dpfilld workers, plus the
// client the load generator drives it through.
type stack struct {
	// srv is the served dpfilld instance (nil behind a coordinator).
	srv *server.Server
	// co and workers make up the coordinator tier (coord-batch only).
	co      *cluster.Coordinator
	workers []*server.Server
	urls    []string // base URLs of workers
	// c is the load generator's client: MaxAttempts 1, at most
	// `clients` pooled connections.
	c  *client.Client
	hc *http.Client

	cancel context.CancelFunc
	served []chan error
}

// serve binds a loopback listener and runs fn on it until the stack's
// context ends; the returned channel yields fn's result.
func (st *stack) serve(ctx context.Context, fn func(context.Context, net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("binding loopback: %w", err)
	}
	done := make(chan error, 1)
	st.served = append(st.served, done)
	go func() { done <- fn(ctx, l) }()
	return "http://" + l.Addr().String(), nil
}

// newStack starts a single dpfilld (workers == 0) or a coordinator
// over `workers` dpfilld instances with one engine worker each, and a
// client for it. Construction is part of set-up time.
func newStack(workers, clients int) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel}
	url, err := st.start(ctx, workers)
	if err != nil {
		st.close()
		return nil, err
	}
	// Closed-loop clients never hold more than one request each, so
	// `clients` connections carry the whole load.
	tr := client.NewPooledHTTPClient().Transport.(*http.Transport)
	tr.MaxConnsPerHost = clients
	tr.MaxIdleConnsPerHost = clients
	st.hc = &http.Client{Transport: tr}
	st.c, err = client.New(client.Config{BaseURL: url, HTTPClient: st.hc, MaxAttempts: 1})
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) start(ctx context.Context, workers int) (string, error) {
	if workers == 0 {
		srv, err := server.New(server.Config{})
		if err != nil {
			return "", err
		}
		st.srv = srv
		return st.serve(ctx, srv.Serve)
	}
	urls := make([]string, workers)
	for i := range urls {
		srv, err := server.New(server.Config{Workers: 1})
		if err != nil {
			return "", err
		}
		st.workers = append(st.workers, srv)
		if urls[i], err = st.serve(ctx, srv.Serve); err != nil {
			return "", err
		}
	}
	st.urls = urls
	co, err := cluster.New(cluster.Config{Workers: urls, Local: server.Config{Workers: 1}})
	if err != nil {
		return "", err
	}
	st.co = co
	url, err := st.serve(ctx, co.Serve)
	if err != nil {
		return "", err
	}
	return url, st.admitted(ctx, workers)
}

// admitted waits until the coordinator's first heartbeat sweep has
// admitted every worker.
func (st *stack) admitted(ctx context.Context, workers int) error {
	deadline := time.Now().Add(10 * time.Second)
	for st.co.Stats().WorkersHealthy < workers {
		if time.Now().After(deadline) {
			return errors.New("coordinator did not admit its workers within 10s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// workerIndex returns the index of the worker with base URL u; a shard
// the coordinator answered itself (empty u) maps to 0.
func (st *stack) workerIndex(u string) int {
	for k, w := range st.urls {
		if w == u {
			return k
		}
	}
	return 0
}

// close stops every served tier and waits for each to shut down.
func (st *stack) close() {
	if st.hc != nil {
		st.hc.CloseIdleConnections()
	}
	st.cancel()
	for _, done := range st.served {
		<-done
	}
}

// stats sums the dpfilld Stats of the stack's fill servers.
func (st *stack) stats() server.Stats {
	if st.srv != nil {
		return st.srv.Stats()
	}
	var sum server.Stats
	for _, w := range st.workers {
		s := w.Stats()
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.CacheEntries += s.CacheEntries
	}
	return sum
}

// handlerClient returns a client whose requests run straight through h
// into an in-memory recorder: no socket, the exact handler path.
func handlerClient(h http.Handler) *client.Client {
	c, err := client.New(client.Config{
		BaseURL:     "http://in-process",
		HTTPClient:  &http.Client{Transport: handlerTransport{h}},
		MaxAttempts: 1,
	})
	if err != nil {
		panic(err) // the base URL is a constant
	}
	return c
}

type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// serveRecorded runs one request body through h into a recorder and
// returns the status and response body.
func serveRecorded(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
