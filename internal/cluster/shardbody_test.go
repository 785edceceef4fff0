package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// sentBodies collects the /v1/batch bodies of every recorded client.
type sentBodies struct {
	mu     sync.Mutex
	bodies [][]byte
}

// take returns the bodies sent so far and forgets them.
func (s *sentBodies) take() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.bodies
	s.bodies = nil
	return out
}

// bodyRecorder is an http.RoundTripper that keeps a copy of every
// /v1/batch body it carries before passing the request on.
type bodyRecorder struct {
	base http.RoundTripper
	sent *sentBodies
}

func (r bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/batch" {
		return r.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	r.sent.mu.Lock()
	r.sent.bodies = append(r.sent.bodies, body)
	r.sent.mu.Unlock()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	return r.base.RoundTrip(out)
}

// Worker behaviours on /v1/batch.
const (
	serveBatch int32 = iota
	answer503
	dropConnection
	stall
)

// batchWorker is a fill worker whose /v1/batch answers as mode says;
// health checks and stats always answer.
type batchWorker struct {
	ts   *httptest.Server
	mode atomic.Int32
}

func newBatchWorker(t *testing.T, mode int32) *batchWorker {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w := &batchWorker{}
	w.mode.Store(mode)
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			switch w.mode.Load() {
			case answer503:
				http.Error(rw, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
				return
			case dropConnection:
				hijackClose(rw)
				return
			case stall:
				io.Copy(io.Discard, r.Body)
				select {
				case <-time.After(3 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
		}
		srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// recordedCoordinator builds a coordinator over workers whose fleet
// clients and local fallback client all send through one recorder.
func recordedCoordinator(t *testing.T, cfg Config, workers ...*batchWorker) (*Coordinator, *sentBodies) {
	t.Helper()
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.ts.URL)
	}
	cfg.Registry = RegistryConfig{HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	sent := new(sentBodies)
	recorded := func(url string, base http.RoundTripper) *client.Client {
		c, err := client.New(client.Config{BaseURL: url, HTTPClient: &http.Client{Transport: bodyRecorder{base: base, sent: sent}}, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, w := range co.reg.workers {
		w.c = recorded(w.url, http.DefaultTransport)
	}
	co.local = recorded("http://local.fallback", handlerTransport{h: co.localSrv.Handler()})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	waitHealthy(t, co, len(workers))
	return co, sent
}

// TestShardBodySentOnEveryAttempt: a shard is encoded once and every
// attempt — a failover after a 503, a hedge beside a straggler, the
// local fallback when the fleet is down — sends those same bytes,
// which equal json.Marshal of the shard. Routing is least-loaded
// (affinity off), so the first worker listed takes the first attempt.
func TestShardBodySentOnEveryAttempt(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		modes    []int32
		attempts int // bodies one shard sends, fallback included
		check    func(t *testing.T, st Stats)
	}{
		{"failover after 503", Config{}, []int32{answer503, serveBatch}, 2, func(t *testing.T, st Stats) {
			if st.ShardRetries != 1 || st.Fallbacks != 0 {
				t.Errorf("retries %d fallbacks %d, want one failover", st.ShardRetries, st.Fallbacks)
			}
		}},
		{"hedged straggler", Config{HedgeAfter: 30 * time.Millisecond}, []int32{stall, serveBatch}, 2, func(t *testing.T, st Stats) {
			if st.HedgesLaunched != 1 || st.HedgeWins != 1 {
				t.Errorf("hedges %d wins %d, want one winning hedge", st.HedgesLaunched, st.HedgeWins)
			}
		}},
		{"fleet down, local fallback", Config{}, []int32{dropConnection}, 2, func(t *testing.T, st Stats) {
			if st.Fallbacks != 1 {
				t.Errorf("fallbacks %d, want 1", st.Fallbacks)
			}
		}},
	}
	req := randomBatch(6)
	want := localExpected(t, req)
	shard, err := json.Marshal(client.BatchRequest{Jobs: req.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var workers []*batchWorker
			for _, m := range tc.modes {
				workers = append(workers, newBatchWorker(t, m))
			}
			tc.cfg.DisableAffinity = true
			co, sent := recordedCoordinator(t, tc.cfg, workers...)

			resp := co.batchThrough(context.Background(), req)
			assertBatchParity(t, resp, want, req)
			tc.check(t, co.Stats())
			bodies := sent.take()
			if len(bodies) != tc.attempts {
				t.Fatalf("shard sent %d bodies, want %d", len(bodies), tc.attempts)
			}
			for k, body := range bodies {
				if !bytes.Equal(body, shard) {
					t.Fatalf("attempt %d sent %.120q, want json.Marshal of the shard %.120q", k, body, shard)
				}
			}

			// runShard holds only the bytes it is handed, never the jobs,
			// so it cannot encode the shard again: every attempt must
			// send this indented body verbatim. The fleet first settles
			// back to idle and admitted, so routing repeats itself.
			waitIdle(t, co, len(workers))
			indented, err := json.MarshalIndent(client.BatchRequest{Jobs: req.Jobs}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out := make([]client.BatchItem, len(req.Jobs))
			co.runShard(context.Background(), indented, 0, out)
			assertBatchParity(t, &client.BatchResponse{Results: out, Failed: want.Failed}, want, req)
			bodies = sent.take()
			if len(bodies) != tc.attempts {
				t.Fatalf("runShard sent %d bodies, want %d", len(bodies), tc.attempts)
			}
			for k, body := range bodies {
				if !bytes.Equal(body, indented) {
					t.Fatalf("runShard attempt %d re-encoded the shard: sent %.120q", k, body)
				}
			}
		})
	}
}

// waitIdle blocks until n workers are admitted and none carries load:
// a cancelled straggler attempt has returned and the heartbeat has
// seen every worker's queue empty.
func waitIdle(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	waitHealthy(t, co, n)
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range co.reg.workers {
		for w.load() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never went idle", w.url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
