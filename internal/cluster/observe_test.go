package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/logx"
	"repro/internal/reqid"
	"repro/internal/server"
)

// TestStaleSweepCannotReadmitZombie pins the generation fix: a
// heartbeat sweep that polled a worker just before a mid-dispatch
// failure ejected it must not land afterwards and readmit the zombie.
func TestStaleSweepCannotReadmitZombie(t *testing.T) {
	w := &worker{url: "http://w"}
	gen := w.beginSweep()
	// The sweep's poll succeeded... and then a dispatch hit the worker
	// dead and ejected it.
	w.markDown()
	// The stale sweep result lands late: it must be discarded.
	w.applySweep(gen, &client.Stats{}, nil, 2)
	if w.isHealthy() {
		t.Fatal("stale sweep readmitted a worker ejected after the poll began")
	}
	// The NEXT sweep starts at the new generation and readmits a
	// genuinely recovered worker.
	gen2 := w.beginSweep()
	w.applySweep(gen2, &client.Stats{}, nil, 2)
	if !w.isHealthy() {
		t.Fatal("fresh sweep failed to readmit a recovered worker")
	}
}

// TestMarkDownSweepRace hammers the same interleaving under -race.
// Each round pins the invariant directly: the sweep's generation is
// read BEFORE markDown runs, so whatever order applySweep and markDown
// land in, the worker must end the round unhealthy — either the stale
// sweep was discarded, or it applied first and markDown overrode it.
func TestMarkDownSweepRace(t *testing.T) {
	w := &worker{url: "http://w"}
	for i := 0; i < 500; i++ {
		gen := w.beginSweep()
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			w.applySweep(gen, &client.Stats{}, nil, 2)
		}()
		go func() {
			defer wg.Done()
			<-start
			w.markDown()
		}()
		close(start)
		wg.Wait()
		if w.isHealthy() {
			t.Fatalf("round %d: worker healthy after markDown raced a stale sweep", i)
		}
	}
}

// TestHedgeKeepsFailoverBudget pins the budget fix: a straggler first
// attempt plus one real failure must still reach a third worker. The
// old accounting charged the hedge against MaxAttempts, so after
// slow-A and dead-B the budget was spent and the shard sat out A's
// full delay; now the hedge has its own slot and the failover lands
// on C.
func TestHedgeKeepsFailoverBudget(t *testing.T) {
	slow := newChaosWorker(t)
	slow.slowBatchMs.Store(3000)
	dying := newChaosWorker(t)
	dying.dieOnNextBatch.Store(true)
	healthy := newChaosWorker(t)
	co := newTestCoordinator(t, Config{
		ShardSize:   16,
		MaxAttempts: 2,
		HedgeAfter:  50 * time.Millisecond,
		// Deterministic routing: first attempt goes least-loaded (slow,
		// the earliest worker, on an idle-fleet tie), the hedge to dying,
		// the failover to healthy.
		DisableAffinity: true,
	}, slow, dying, healthy)
	waitHealthy(t, co, 3)
	c := coordClient(t, co)

	req := randomBatch(4)
	start := time.Now()
	resp, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	elapsed := time.Since(start)
	assertBatchParity(t, resp, localExpected(t, req), req)
	if elapsed > 2500*time.Millisecond {
		t.Fatalf("batch took %v — failover after the hedge failure never launched", elapsed)
	}
	if healthy.batchHits.Load() == 0 {
		t.Fatal("third worker never tried: the hedge consumed the failover budget")
	}
	st := co.Stats()
	if st.HedgesLaunched == 0 {
		t.Fatal("no hedge launched against the straggler")
	}
	if st.ShardRetries == 0 {
		t.Fatal("the dead hedge target's failure was not retried")
	}
	if st.Fallbacks != 0 || st.ShardFailures != 0 {
		t.Fatalf("shard did not complete on the fleet: %+v", st)
	}
}

// TestAffinityRoutesRepeatBatchesToSameWorker: identical batches
// rendezvous-hash to one worker (whose result cache is then warm), and
// ejecting that worker reroutes cleanly as an affinity miss.
func TestAffinityRoutesRepeatBatchesToSameWorker(t *testing.T) {
	workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}
	co := newTestCoordinator(t, Config{ShardSize: 16}, workers...)
	waitHealthy(t, co, 3)
	c := coordClient(t, co)

	req := randomBatch(4)
	want := localExpected(t, req)
	for i := 0; i < 3; i++ {
		resp, err := c.Batch(context.Background(), req)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		assertBatchParity(t, resp, want, req)
	}
	var target *chaosWorker
	for _, w := range workers {
		switch hits := w.batchHits.Load(); {
		case hits == 3 && target == nil:
			target = w
		case hits != 0:
			t.Fatalf("batches spread across workers despite identical payloads: %d hits on %s", hits, w.ts.URL)
		}
	}
	if target == nil {
		t.Fatal("no worker answered all three identical batches")
	}
	st := co.Stats()
	if st.AffinityHits < 3 {
		t.Fatalf("affinity hits %d, want >= 3", st.AffinityHits)
	}

	// Repeats that differ only in fields the worker's cache ignores —
	// debug, job names, omit_cubes, timeout_ms, priority — route on the
	// same key and land on the same warm worker.
	for v, edit := range []func(*client.BatchRequest, int){
		func(r *client.BatchRequest, _ int) { r.Debug = true },
		func(r *client.BatchRequest, k int) { r.Jobs[k].Name = fmt.Sprintf("renamed-%d", k) },
		func(r *client.BatchRequest, k int) { r.Jobs[k].Debug, r.Jobs[k].OmitCubes = true, true },
		func(r *client.BatchRequest, k int) { r.Jobs[k].TimeoutMillis, r.Jobs[k].Priority = 60000, k },
	} {
		variant := client.BatchRequest{Jobs: slices.Clone(req.Jobs)}
		for k := range variant.Jobs {
			edit(&variant, k)
		}
		if _, err := c.Batch(context.Background(), variant); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if hits := target.batchHits.Load(); hits != int64(4+v) {
			t.Fatalf("variant %d of the batch left the warm worker (%d hits on it, want %d)", v, hits, 4+v)
		}
	}

	// Eject the hash target: the same batch must reroute (an affinity
	// miss), still answering correctly.
	target.dead.Store(true)
	waitHealthy(t, co, 2)
	missesBefore := co.Stats().AffinityMisses
	resp, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("batch after ejection: %v", err)
	}
	assertBatchParity(t, resp, want, req)
	if co.Stats().AffinityMisses <= missesBefore {
		t.Fatal("ejected hash target was not counted as an affinity miss")
	}
}

// syncBuf is a log sink safe for the concurrent writers behind a
// coordinator (heartbeats, dispatch goroutines).
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// batchLogLine picks the access-log record for POST /v1/batch carrying
// the given trace ID out of a log sink (logfmt: one key=value token
// per field).
func batchLogLine(buf *syncBuf, rid string) string {
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "method=POST") &&
			strings.Contains(line, "path=/v1/batch") &&
			strings.Contains(line, "rid="+rid) {
			return line
		}
	}
	return ""
}

// TestTraceCorrelatesAcrossHops pins the tracing contract end to end:
// one batch through the coordinator writes an access-log line on BOTH
// tiers with the caller's trace ID, and the worker hop's parent span
// is the coordinator hop's span — the join key that reconstructs the
// request path from the fleet's logs.
func TestTraceCorrelatesAcrossHops(t *testing.T) {
	var wbuf, cbuf syncBuf
	srv, err := server.New(server.Config{Workers: 2, Log: logx.New(&wbuf, logx.Options{NoTime: true})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	wts := httptest.NewServer(srv.Handler())
	t.Cleanup(wts.Close)

	co, err := New(Config{
		Workers:  []string{wts.URL},
		Registry: RegistryConfig{HeartbeatInterval: 25 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond},
		Log:      logx.New(&cbuf, logx.Options{NoTime: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go co.Run(ctx)
	waitHealthy(t, co, 1)
	c := coordClient(t, co)

	const rid = "feedc0dedeadbeef"
	rctx := reqid.WithTrace(context.Background(), reqid.Trace{ID: rid, Span: "caller-span"})
	req := randomBatch(3)
	if _, err := c.Batch(rctx, req); err != nil {
		t.Fatalf("batch: %v", err)
	}

	// The middleware writes its line after the response; give both logs
	// a moment to land.
	var coordLine, workerLine string
	deadline := time.Now().Add(2 * time.Second)
	for coordLine == "" || workerLine == "" {
		coordLine, workerLine = batchLogLine(&cbuf, rid), batchLogLine(&wbuf, rid)
		if time.Now().After(deadline) {
			t.Fatalf("trace %s missing from a tier's access log\ncoordinator: %q\nworker: %q", rid, coordLine, workerLine)
		}
		time.Sleep(5 * time.Millisecond)
	}
	spanRe := regexp.MustCompile(`span=(\S+)`)
	parentRe := regexp.MustCompile(`parent=(\S+)`)
	cm, wm := spanRe.FindStringSubmatch(coordLine), parentRe.FindStringSubmatch(workerLine)
	if cm == nil || wm == nil {
		t.Fatalf("log lines missing span fields\ncoordinator: %q\nworker: %q", coordLine, workerLine)
	}
	if wm[1] != cm[1] {
		t.Fatalf("worker hop's parent span %s is not the coordinator hop's span %s", wm[1], cm[1])
	}
	if pm := parentRe.FindStringSubmatch(coordLine); pm == nil || pm[1] != "caller-span" {
		t.Fatalf("coordinator hop lost the caller's span: %q", coordLine)
	}
}

// TestBatchDebugReturnsShardTraces: a debug batch answers its
// per-shard dispatch breakdown, and /stats retains the traces.
func TestBatchDebugReturnsShardTraces(t *testing.T) {
	co := newTestCoordinator(t, Config{ShardSize: 2}, newChaosWorker(t), newChaosWorker(t))
	waitHealthy(t, co, 2)
	c := coordClient(t, co)

	req := randomBatch(5)
	req.Debug = true
	resp, err := c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 3 {
		t.Fatalf("5 jobs at shard size 2 answered %d traces, want 3", len(resp.Shards))
	}
	for i, tr := range resp.Shards {
		if tr.Lo != i*2 || tr.Hi != min(tr.Lo+2, 5) {
			t.Fatalf("shard %d covers [%d,%d)", i, tr.Lo, tr.Hi)
		}
		if tr.Attempts < 1 || tr.Worker == "" || tr.DispatchNS <= 0 || tr.WorkerNS <= 0 {
			t.Fatalf("shard %d trace incomplete: %+v", i, tr)
		}
		if tr.DispatchNS < tr.WorkerNS {
			t.Fatalf("shard %d: dispatch %dns shorter than its worker call %dns", i, tr.DispatchNS, tr.WorkerNS)
		}
	}
	if got := co.Stats().RecentShards; len(got) != 3 {
		t.Fatalf("/stats retains %d shard traces, want 3", len(got))
	}

	// Without the flag the wire payload stays lean.
	req.Debug = false
	resp, err = c.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Shards != nil {
		t.Fatal("non-debug batch leaked shard traces")
	}
}

// TestCoordinatorMetricsEndpoint scrapes the coordinator tier:
// Prometheus text format with the dispatch families populated.
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	co := newTestCoordinator(t, Config{ShardSize: 2}, newChaosWorker(t), newChaosWorker(t))
	waitHealthy(t, co, 2)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	req := randomBatch(4)
	if _, err := c.Batch(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE dpfill_coord_jobs_total counter",
		"# TYPE dpfill_coord_shards_total counter",
		"# TYPE dpfill_coord_shard_retries_total counter",
		"# TYPE dpfill_coord_hedges_total counter",
		"# TYPE dpfill_coord_fallbacks_total counter",
		"# TYPE dpfill_coord_affinity_hits_total counter",
		"# TYPE dpfill_coord_workers_healthy gauge",
		"# TYPE dpfill_coord_shard_latency_seconds histogram",
		"# TYPE dpfill_coord_heartbeat_rtt_seconds histogram",
		"# TYPE dpfill_coord_wal_records_total counter",
		`dpfill_coord_worker_outstanding{worker="`,
		`dpfill_coord_shard_latency_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, "dpfill_coord_workers_healthy 2\n") == false {
		t.Fatalf("healthy-workers gauge wrong in:\n%s", body)
	}
	if strings.Contains(body, "dpfill_coord_shard_latency_seconds_count 0\n") {
		t.Fatal("shard latency histogram never observed the dispatched batch")
	}
	if strings.Contains(body, "dpfill_coord_heartbeat_rtt_seconds_count 0\n") {
		t.Fatal("heartbeat RTT histogram never observed a sweep")
	}
}
