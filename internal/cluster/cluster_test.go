package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/reqid"
	"repro/internal/server"
)

// chaosWorker is a real fill service wrapped in a fault-injection
// layer: it can drop dead (every connection closed mid-flight), die
// on its next batch, answer batches slowly, or fake its reported
// queue depth.
type chaosWorker struct {
	srv *server.Server
	ts  *httptest.Server

	dead              atomic.Bool
	dieOnNextBatch    atomic.Bool
	dieOnNextPipeline atomic.Bool
	slowBatchMs       atomic.Int64
	fakeQueueDepth    atomic.Int64
	batchHits         atomic.Int64
	pipelineHits      atomic.Int64
	lastRequestID     atomic.Value // string
}

func newChaosWorker(t *testing.T) *chaosWorker {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w := &chaosWorker{srv: srv}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			hijackClose(rw)
			return
		}
		if r.URL.Path == "/v1/batch" {
			w.batchHits.Add(1)
			w.lastRequestID.Store(r.Header.Get(reqid.Header))
			if w.dieOnNextBatch.CompareAndSwap(true, false) {
				w.dead.Store(true)
				hijackClose(rw)
				return
			}
			if d := w.slowBatchMs.Load(); d > 0 {
				// Drain the body so the server's background read can
				// detect a client disconnect and cancel r.Context();
				// with an unread body a cancelled attempt would leave
				// this handler sleeping out the full delay and stall
				// the httptest server's Close.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				select {
				case <-time.After(time.Duration(d) * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
		}
		if r.URL.Path == "/v1/pipeline" {
			w.pipelineHits.Add(1)
			if w.dieOnNextPipeline.CompareAndSwap(true, false) {
				w.dead.Store(true)
				hijackClose(rw)
				return
			}
		}
		if r.URL.Path == "/stats" {
			if q := w.fakeQueueDepth.Load(); q > 0 {
				rw.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(rw).Encode(server.Stats{QueueDepth: int(q), EngineWorkers: 2})
				return
			}
		}
		w.srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	return w
}

// errorResponse is the uniform error payload both tiers answer with.
type errorResponse struct {
	Error string `json:"error"`
}

// hijackClose simulates a killed worker: the TCP connection dies
// without an HTTP answer.
func hijackClose(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

// newTestCoordinator builds a coordinator over the given workers with
// fast heartbeats and starts its registry loop.
func newTestCoordinator(t *testing.T, cfg Config, workers ...*chaosWorker) *Coordinator {
	t.Helper()
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.ts.URL)
	}
	if cfg.Registry.HeartbeatInterval == 0 {
		cfg.Registry.HeartbeatInterval = 25 * time.Millisecond
	}
	if cfg.Registry.HeartbeatTimeout == 0 {
		cfg.Registry.HeartbeatTimeout = 500 * time.Millisecond
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	return co
}

// waitHealthy blocks until the coordinator has admitted n workers.
func waitHealthy(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().WorkersHealthy != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d healthy workers: %+v", n, co.Stats().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// coordClient mounts the coordinator's handler and returns a client
// speaking to it over real HTTP.
func coordClient(t *testing.T, co *Coordinator) *client.Client {
	t.Helper()
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(client.Config{BaseURL: ts.URL, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomBatch builds a deterministic mixed batch: varying shapes,
// fillers and orderers, plus one invalid job to pin error-slot
// alignment.
func randomBatch(jobs int) client.BatchRequest {
	r := rand.New(rand.NewSource(7))
	fillers := []string{"dp", "mt", "0", "b"}
	orderers := []string{"tool", "i"}
	req := client.BatchRequest{}
	for j := 0; j < jobs; j++ {
		rows, width := 3+r.Intn(6), 4+r.Intn(8)
		cubes := make([]string, rows)
		for i := range cubes {
			var sb strings.Builder
			for k := 0; k < width; k++ {
				switch r.Intn(3) {
				case 0:
					sb.WriteByte('0')
				case 1:
					sb.WriteByte('1')
				default:
					sb.WriteByte('X')
				}
			}
			cubes[i] = sb.String()
		}
		req.Jobs = append(req.Jobs, client.FillRequest{
			Name:    fmt.Sprintf("job-%d", j),
			Cubes:   cubes,
			Filler:  fillers[j%len(fillers)],
			Orderer: orderers[j%len(orderers)],
		})
	}
	// One malformed job in the middle: its error must stay in its slot.
	req.Jobs[jobs/2].Cubes = []string{"0z"}
	return req
}

// localExpected answers the batch on a plain single-node service, the
// ground truth the cluster must match byte for byte.
func localExpected(t *testing.T, req client.BatchRequest) *client.BatchResponse {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	lc, err := newLocalClient(srv)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := lc.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// assertBatchParity checks the cluster answer against the local one:
// same length, same failure slots, and byte-identical cubes plus
// identical peak/total per successful job, in submission order.
func assertBatchParity(t *testing.T, got, want *client.BatchResponse, req client.BatchRequest) {
	t.Helper()
	if len(got.Results) != len(want.Results) || got.Failed != want.Failed {
		t.Fatalf("shape: got %d results/%d failed, want %d/%d",
			len(got.Results), got.Failed, len(want.Results), want.Failed)
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if (g.Error != "") != (w.Error != "") {
			t.Fatalf("job %d: error mismatch: got %q, want %q", i, g.Error, w.Error)
		}
		if w.Error != "" {
			continue
		}
		if g.Result.Name != req.Jobs[i].Name {
			t.Fatalf("job %d answers %q — submission order lost", i, g.Result.Name)
		}
		if strings.Join(g.Result.Cubes, "\n") != strings.Join(w.Result.Cubes, "\n") {
			t.Fatalf("job %d: filled cubes differ from local engine", i)
		}
		if g.Result.Peak != w.Result.Peak || g.Result.Total != w.Result.Total {
			t.Fatalf("job %d: peak/total %d/%d, want %d/%d",
				i, g.Result.Peak, g.Result.Total, w.Result.Peak, w.Result.Total)
		}
	}
}

// TestBatchParityTwoWorkers pins the acceptance criterion: a batch
// through the coordinator with 2 live workers is byte-identical to
// the same batch on a local engine.
func TestBatchParityTwoWorkers(t *testing.T) {
	a, b := newChaosWorker(t), newChaosWorker(t)
	co := newTestCoordinator(t, Config{ShardSize: 3}, a, b)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	req := randomBatch(20)
	got, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, localExpected(t, req), req)

	st := co.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("fleet batch used the local fallback %d times", st.Fallbacks)
	}
	if st.ShardsDispatched == 0 || st.JobsDispatched != 20 {
		t.Fatalf("dispatch accounting: %+v", st)
	}
	// Both workers actually shared the load.
	if a.batchHits.Load() == 0 || b.batchHits.Load() == 0 {
		t.Fatalf("load not spread: worker hits %d/%d", a.batchHits.Load(), b.batchHits.Load())
	}
}

// TestFailoverWorkerKilledMidBatch pins the acceptance criterion's
// failure half: worker A dies on its first shard, the coordinator
// retries those shards on B, and the aggregated batch is still
// byte-identical to the local engine, in submission order. The
// registry ejects the dead worker and readmits it after recovery.
func TestFailoverWorkerKilledMidBatch(t *testing.T) {
	a, b := newChaosWorker(t), newChaosWorker(t)
	co := newTestCoordinator(t, Config{ShardSize: 2}, a, b)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	a.dieOnNextBatch.Store(true)
	req := randomBatch(16)
	got, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, localExpected(t, req), req)

	st := co.Stats()
	if st.ShardRetries == 0 {
		t.Fatalf("no shard was retried after the worker died: %+v", st)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("%d shards failed outright despite a live worker", st.ShardFailures)
	}
	// Failover wins are not hedge wins: hedging was off.
	if st.HedgesLaunched != 0 || st.HedgeWins != 0 {
		t.Fatalf("failover counted as hedging: %+v", st)
	}
	// The dead worker must be ejected...
	waitHealthy(t, co, 1)
	// ...and readmitted once it recovers.
	a.dead.Store(false)
	waitHealthy(t, co, 2)
}

// TestRegistryEjectsAndReadmits exercises the pure heartbeat path (no
// dispatch involved): a worker that stops answering is ejected after
// FailThreshold sweeps and readmitted on its first healthy one.
func TestRegistryEjectsAndReadmits(t *testing.T) {
	a, b := newChaosWorker(t), newChaosWorker(t)
	co := newTestCoordinator(t, Config{Registry: RegistryConfig{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		FailThreshold:     2,
	}}, a, b)
	waitHealthy(t, co, 2)

	a.dead.Store(true)
	waitHealthy(t, co, 1)
	for _, ws := range co.Stats().Workers {
		if ws.URL == a.ts.URL && ws.Healthy {
			t.Fatal("dead worker still marked healthy")
		}
	}
	a.dead.Store(false)
	waitHealthy(t, co, 2)
	for _, ws := range co.Stats().Workers {
		if !ws.Healthy || ws.ConsecutiveFails != 0 {
			t.Fatalf("worker not cleanly readmitted: %+v", ws)
		}
	}
}

// TestLeastLoadedDispatch pins the dispatch ranking: a worker
// reporting a deep queue is avoided while an idle one exists.
func TestLeastLoadedDispatch(t *testing.T) {
	busy, idle := newChaosWorker(t), newChaosWorker(t)
	busy.fakeQueueDepth.Store(100)
	co := newTestCoordinator(t, Config{ShardSize: 4}, busy, idle)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	req := randomBatch(8)
	if _, err := c.Batch(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if n := busy.batchHits.Load(); n != 0 {
		t.Fatalf("overloaded worker still got %d shards", n)
	}
	if idle.batchHits.Load() == 0 {
		t.Fatal("idle worker got no shards")
	}
}

// TestFallbackWhenFleetEmpty: a coordinator with no workers at all
// still answers — on its local in-process engine — and the answer
// matches the local ground truth.
func TestFallbackWhenFleetEmpty(t *testing.T) {
	co := newTestCoordinator(t, Config{ShardSize: 4})
	c := coordClient(t, co)

	req := randomBatch(6)
	got, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchParity(t, got, localExpected(t, req), req)
	if st := co.Stats(); st.Fallbacks == 0 {
		t.Fatalf("empty fleet did not engage the fallback: %+v", st)
	}

	// Single fills fall back too.
	fr, err := c.Fill(context.Background(), client.FillRequest{Cubes: []string{"00", "XX", "XX", "11"}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Peak != 1 {
		t.Fatalf("fallback fill peak %d", fr.Peak)
	}
}

// TestDisableFallback: with the fallback off and no workers, requests
// answer 503 instead of silently running locally.
func TestDisableFallback(t *testing.T) {
	co := newTestCoordinator(t, Config{DisableFallback: true})
	c := coordClient(t, co)
	_, err := c.Fill(context.Background(), client.FillRequest{Cubes: []string{"0X"}})
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503", err)
	}
	batch, err := c.Batch(context.Background(), client.BatchRequest{Jobs: []client.FillRequest{{Cubes: []string{"0X"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 1 || !strings.Contains(batch.Results[0].Error, "no healthy workers") {
		t.Fatalf("batch on empty fleet: %+v", batch)
	}
}

// TestShardFailureLoggedWithoutAccessLog: with the daemon's
// -access-log off, a failed shard dispatch still leaves its error
// record, and the request leaves no access record.
func TestShardFailureLoggedWithoutAccessLog(t *testing.T) {
	var logs strings.Builder
	logger, err := server.LoggerFromFlags(&logs, false, "info", "logfmt")
	if err != nil {
		t.Fatal(err)
	}
	co := newTestCoordinator(t, Config{DisableFallback: true, FrontConfig: server.FrontConfig{Log: logger}})
	rec := httptest.NewRecorder()
	co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`{"jobs":[{"cubes":["0X"]}]}`)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "no healthy workers") {
		t.Fatalf("answered %d %s", rec.Code, rec.Body.String())
	}
	out := logs.String()
	if !strings.Contains(out, `level=ERROR msg="shard dispatch failed" jobs=1`) || strings.Contains(out, "msg=request") {
		t.Fatalf("log %q: want the shard failure and no access record", out)
	}
}

// TestHedgedRequestBeatsStraggler: worker A sits on the shard; with
// hedging on, a duplicate goes to B and its answer wins.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	slow, fast := newChaosWorker(t), newChaosWorker(t)
	slow.slowBatchMs.Store(5000)
	// Affinity off: the test needs the first attempt to land on the
	// slow worker deterministically (tied loads pick in fleet order).
	co := newTestCoordinator(t, Config{ShardSize: 8, HedgeAfter: 50 * time.Millisecond, DisableAffinity: true}, slow, fast)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	req := randomBatch(4)
	start := time.Now()
	got, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hedge did not rescue the straggler: batch took %v", elapsed)
	}
	assertBatchParity(t, got, localExpected(t, req), req)
	st := co.Stats()
	if st.HedgesLaunched == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge accounting: %+v", st)
	}
}

// TestHungWorkerFailsOver pins the hang guard: a worker that accepts
// the connection but never answers must not stall its shard past
// AttemptTimeout — the shard fails over, the hung worker is ejected,
// and the batch still matches the local engine.
func TestHungWorkerFailsOver(t *testing.T) {
	hung, live := newChaosWorker(t), newChaosWorker(t)
	hung.slowBatchMs.Store(60_000)
	// Affinity off: the hang must deterministically hit first.
	co := newTestCoordinator(t, Config{ShardSize: 8, AttemptTimeout: 150 * time.Millisecond, DisableAffinity: true}, hung, live)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	req := randomBatch(6)
	start := time.Now()
	got, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung worker stalled the batch for %v", elapsed)
	}
	assertBatchParity(t, got, localExpected(t, req), req)
	st := co.Stats()
	if st.ShardRetries == 0 {
		t.Fatalf("hung shard was not retried: %+v", st)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("%d shards failed outright despite a live worker", st.ShardFailures)
	}
	// The hung worker was ejected immediately; its heartbeats still
	// answer, so it is readmitted by the next sweep — both states are
	// legitimate afterwards, the invariant is the batch never waited.
}

// TestProtocolErrorNotRetriedAcrossFleet: a 200 answer that does not
// decode is terminal — the coordinator must not eject the worker or
// burn attempts on other nodes for a schema mismatch.
func TestProtocolErrorNotRetried(t *testing.T) {
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case "/stats":
			w.Write([]byte(`{}`))
		default:
			w.Write([]byte(`this is not json`))
		}
	}))
	t.Cleanup(garbled.Close)
	co, err := New(Config{Workers: []string{garbled.URL}, DisableFallback: true,
		Registry: RegistryConfig{HeartbeatInterval: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	waitHealthy(t, co, 1)

	_, err = co.Fill(context.Background(), client.FillRequest{Cubes: []string{"0X"}})
	var proto *client.ProtocolError
	if !errors.As(err, &proto) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if st := co.Stats(); st.ShardRetries != 0 {
		t.Fatalf("schema mismatch was retried %d times", st.ShardRetries)
	}
	// The worker still answers heartbeats and must stay admitted.
	if co.Stats().WorkersHealthy != 1 {
		t.Fatal("worker ejected over a schema mismatch")
	}
}

// TestRequestIDPropagation: the coordinator forwards a caller's ID to
// workers and echoes it back; without one it mints its own.
func TestRequestIDPropagation(t *testing.T) {
	a := newChaosWorker(t)
	co := newTestCoordinator(t, Config{ShardSize: 4}, a)
	waitHealthy(t, co, 1)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)

	body := `{"jobs":[{"cubes":["0X","X1"]}]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(body))
	req.Header.Set(reqid.Header, "rid-cluster-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(reqid.Header); got != "rid-cluster-7" {
		t.Fatalf("coordinator echoed %q, want rid-cluster-7", got)
	}
	if got, _ := a.lastRequestID.Load().(string); got != "rid-cluster-7" {
		t.Fatalf("worker saw request ID %q, want rid-cluster-7", got)
	}

	resp, err = http.Post(ts.URL+"/v1/fill", "application/json", strings.NewReader(`{"cubes":["0X"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(reqid.Header) == "" {
		t.Fatal("coordinator minted no request ID")
	}
}

// TestCoordinatorHTTPSurface covers the handler plumbing: healthz,
// stats, validation and error mapping.
func TestCoordinatorHTTPSurface(t *testing.T) {
	a := newChaosWorker(t)
	co := newTestCoordinator(t, Config{FrontConfig: server.FrontConfig{MaxBatchJobs: 2, MaxBodyBytes: 1 << 20}}, a)
	waitHealthy(t, co, 1)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" || hz["workers_healthy"] != float64(1) {
		t.Fatalf("healthz: %v", hz)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.WorkersTotal != 1 || len(st.Workers) != 1 || st.UptimeSeconds <= 0 {
		t.Fatalf("stats: %+v", st)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"jobs":[]}`, http.StatusBadRequest},
		{`{"jobs":[{},{},{}]}`, http.StatusBadRequest},
		{`{not json`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	// A worker's validation answer passes through with its own status.
	resp, err = http.Post(ts.URL+"/v1/fill", "application/json", strings.NewReader(`{"cubes":["012"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var eresp errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eresp.Error == "" {
		t.Fatalf("pass-through: status %d, error %q", resp.StatusCode, eresp.Error)
	}
}

// TestFillThroughFleet: a single fill rides the same dispatch and
// answers what a worker would.
func TestFillThroughFleet(t *testing.T) {
	a, b := newChaosWorker(t), newChaosWorker(t)
	co := newTestCoordinator(t, Config{}, a, b)
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	direct, err := client.New(client.Config{BaseURL: a.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	req := client.FillRequest{Cubes: []string{"0XX0", "XXXX", "1XX1"}, Orderer: "i"}
	got, err := c.Fill(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Fill(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Peak != want.Peak || strings.Join(got.Cubes, ",") != strings.Join(want.Cubes, ",") {
		t.Fatalf("fill through fleet differs: %+v vs %+v", got, want)
	}

}

// TestGridEndpointGone: neither tier serves /v1/grid. dpfill -grid
// -server sends the paper's fillers as one /v1/batch and renders the
// table itself.
func TestGridEndpointGone(t *testing.T) {
	for tier, h := range ingressTiers(t, 1<<20) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", strings.NewReader(`{"cubes":["0X","X1"]}`)))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: POST /v1/grid answered %d, want 404", tier, rec.Code)
		}
	}
}

// TestProtocolViolationFailsShard: a worker answering the wrong
// result count must not misalign the batch.
func TestProtocolViolationFailsShard(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case "/stats":
			w.Write([]byte(`{}`))
		case "/v1/batch":
			w.Write([]byte(`{"results":[],"failed":0}`))
		}
	}))
	t.Cleanup(ts.Close)
	co, err := New(Config{Workers: []string{ts.URL}, DisableFallback: true,
		Registry: RegistryConfig{HeartbeatInterval: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	waitHealthy(t, co, 1)

	resp := co.Batch(context.Background(), client.BatchRequest{
		Jobs: []client.FillRequest{{Cubes: []string{"0X"}}, {Cubes: []string{"1X"}}},
	})
	if resp.Failed != 2 {
		t.Fatalf("protocol violation not surfaced: %+v", resp)
	}
	for _, it := range resp.Results {
		if !strings.Contains(it.Error, "2-job shard") {
			t.Fatalf("item error: %q", it.Error)
		}
	}
}

// TestServeGracefulShutdown runs the real listener path.
func TestServeGracefulShutdown(t *testing.T) {
	a := newChaosWorker(t)
	co, err := New(Config{Workers: []string{a.ts.URL},
		Registry: RegistryConfig{HeartbeatInterval: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- co.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never answered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of cancel")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	co, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.ListenAndServe(context.Background(), "256.256.256.256:1"); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

func TestNewRejectsBadWorkerURL(t *testing.T) {
	if _, err := New(Config{Workers: []string{"not a url"}}); err == nil {
		t.Fatal("bad worker URL accepted")
	}
}
