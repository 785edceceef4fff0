// Package cluster scales the fill service out: a Coordinator shards
// /v1/batch workloads (and fault-shards /v1/pipeline runs) across a
// fleet of dpfilld workers over their existing HTTP API and re-exposes
// the same /v1/* surface, so callers are topology-agnostic — one
// worker, a fleet, or nothing but the coordinator's own in-process
// engine all answer identically.
//
// The moving parts:
//
//   - a worker registry that admits workers by heartbeat (/healthz +
//     /stats polling), ejects them after consecutive failures or a
//     mid-dispatch transport error, and readmits them on recovery;
//   - least-loaded dispatch ranked by live /stats queue depth plus the
//     coordinator's own outstanding jobs per worker;
//   - batch sharding with per-shard failover to a different worker,
//     optional hedged requests for stragglers, and partial-failure
//     aggregation that preserves submission order;
//   - a local in-process engine fallback when the fleet is empty, so a
//     coordinator with zero workers degrades to a single node instead
//     of an outage.
//
// Determinism contract: because every fill algorithm is deterministic,
// a batch answered by any mix of workers, hedges and fallbacks is
// byte-identical to the same batch run on a local engine.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/jobs"
	prom "repro/internal/metrics"
	"repro/internal/reqid"
	"repro/internal/server"
)

// Config tunes a Coordinator. Workers may be empty (every request then
// runs on the local fallback engine unless DisableFallback is set).
type Config struct {
	// FrontConfig holds the settings the HTTP front shares with
	// dpfilld: body and batch limits (MaxGates bounds the resolved
	// circuit of a sharded pipeline run), the async job queue — whose
	// journaled jobs re-shard across whatever fleet is alive after a
	// restart — logging and the SLO.
	server.FrontConfig
	// Workers are the dpfilld base URLs of the fleet.
	Workers []string
	// Registry tunes heartbeat health-checking.
	Registry RegistryConfig
	// ShardSize is how many jobs of one batch go to one worker at a
	// time (default 16). Smaller shards spread wider and retry
	// cheaper; larger ones amortize per-request overhead.
	ShardSize int
	// MaxAttempts bounds how many distinct workers one shard tries
	// before falling back (default 3, clamped to the fleet size).
	MaxAttempts int
	// HedgeAfter, when positive, launches a duplicate of a shard on
	// another worker if the first answer is still pending after this
	// long; the first success wins. 0 disables hedging.
	HedgeAfter time.Duration
	// AttemptTimeout bounds one worker's answer to one dispatch
	// (default 3m — above the worker's own 2m job-deadline ceiling, so
	// legitimately slow jobs answer 504 on their own first). A worker
	// that is reachable but hung would otherwise stall its shard
	// forever: heartbeat ejection never cancels an in-flight attempt.
	// On expiry the worker is ejected and the shard fails over.
	AttemptTimeout time.Duration
	// DisableFallback refuses requests with 503 when no worker is
	// reachable instead of running them on the local engine.
	DisableFallback bool
	// DisableAffinity turns off cache-affinity routing: every first
	// attempt goes to the least-loaded worker instead of the request's
	// rendezvous-hash target. An ops escape hatch for when sticky
	// routing concentrates pathological load.
	DisableAffinity bool
	// Local configures the in-process fallback service (engine
	// workers, shape limits). Ignored when DisableFallback is set.
	Local server.Config
}

func (c Config) withDefaults() Config {
	c.FrontConfig = c.FrontConfig.WithDefaults()
	if c.ShardSize <= 0 {
		c.ShardSize = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 3 * time.Minute
	}
	return c
}

// Coordinator shards fill workloads across a dpfilld fleet behind the
// same /v1/* API the workers themselves serve: it is the Backend that
// runs fills, batches and pipelines on the fleet, behind the shared
// server.Front (Handler, Serve, ListenAndServe, Close). Construct with
// New; run heartbeats with Run or Serve; stop the async job workers
// with Close when the Coordinator is discarded without going through
// Serve.
type Coordinator struct {
	*server.Front
	cfg          Config
	reg          *registry
	local        *client.Client // in-process fallback; nil when disabled
	localSrv     *server.Server // backing service of local; nil when disabled
	jobsGate     chan struct{}  // closed after Run's first heartbeat sweep
	jobsOnce     sync.Once      // concurrent Run calls close the gate once
	met          *metrics
	shardLog     shardRing
	shardLatency *prom.Histogram
	prom         *prom.Registry
}

// New builds a Coordinator over the configured fleet. Workers start
// unadmitted; the first heartbeat sweep (Run/Serve) brings them in.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	// One pooled HTTP client spans every worker: the coordinator is
	// exactly the chatty many-requests-few-hosts shape connection
	// reuse exists for.
	shared := client.NewPooledHTTPClient()
	mkClient := func(u string) (*client.Client, error) {
		// MaxAttempts 1: the coordinator does cross-worker failover
		// itself; in-place retries against a dead worker only delay it.
		return client.New(client.Config{BaseURL: u, HTTPClient: shared, MaxAttempts: 1})
	}
	reg, err := newRegistry(cfg.Registry, cfg.Workers, mkClient)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{Front: server.NewFront(cfg.FrontConfig), cfg: cfg, reg: reg, met: newMetrics()}
	closeLocal := func() error { return nil }
	if !cfg.DisableFallback {
		co.localSrv, err = server.New(cfg.Local)
		if err != nil {
			return nil, err
		}
		closeLocal = co.localSrv.Close
		co.local, err = newLocalClient(co.localSrv)
		if err != nil {
			closeLocal()
			return nil, err
		}
	}
	// The coordinator's async jobs run through Batch and Pipeline, so a
	// job shards across the fleet exactly like a synchronous request —
	// and a journaled job replayed after a restart re-shards across
	// whatever fleet is alive at replay time. The Start gate holds the
	// job workers until Run's first heartbeat sweep has admitted the
	// fleet: without it a replayed job would dispatch against zero
	// healthy workers and mis-route to the local fallback (or fail).
	co.jobsGate = make(chan struct{})
	// dpvet:ignore registryorder safe: jobsGate holds the job runner until Run()'s first heartbeat sweep, so no job records into the registry before newProm builds it
	if err := co.OpenJobs(co, co.jobsGate); err != nil {
		closeLocal()
		return nil, err
	}
	co.prom = co.newProm()
	co.Mount(server.Tier{
		Metrics: co.prom,
		Healthz: func() any {
			return map[string]any{
				"status":          "ok",
				"workers_total":   len(co.reg.workers),
				"workers_healthy": co.reg.healthyCount(),
			}
		},
		Stats: func() any { return co.Stats() },
		Run:   co.Run,
		Close: closeLocal,
	})
	return co, nil
}

// Run drives the registry's heartbeat loop until ctx is cancelled.
// Serve calls it internally; call it directly when mounting Handler
// under an external HTTP server. Async job execution starts here too:
// the job workers are released only after the first sweep has
// admitted the fleet, so a journaled job replayed across a restart
// re-shards over live workers instead of dispatching into an
// all-unhealthy registry.
func (co *Coordinator) Run(ctx context.Context) {
	co.reg.run(ctx, func() {
		co.jobsOnce.Do(func() { close(co.jobsGate) })
	})
}

// errNoWorkers means dispatch found no admitted worker to try.
var errNoWorkers = &server.StatusError{Status: http.StatusServiceUnavailable, Err: errors.New("cluster: no healthy workers")}

// affinityLoadSlack is how far (in load-score units: queued + inflight
// + outstanding jobs) a request's hash target may exceed the fleet's
// least-loaded worker before affinity yields to load balancing.
const affinityLoadSlack = 8

// withinAffinityBound reports whether the hash target's load is close
// enough to the fleet minimum to honor cache affinity.
func withinAffinityBound(t *worker, reg *registry) bool {
	least := reg.pick(nil)
	if least == nil || least == t {
		return true
	}
	return t.load() <= least.load()+affinityLoadSlack
}

// dispatchInfo is one dispatch's attempt breakdown, for shard traces
// and affinity accounting. The zero value describes a dispatch that
// never launched.
type dispatchInfo struct {
	// Attempts counts launched attempts, hedge included.
	Attempts int
	// Hedged reports whether a hedge attempt was launched.
	Hedged bool
	// Worker is the answering worker's base URL; "" on failure.
	Worker string
	// WorkerNS is the winning attempt's wall-clock time in the worker
	// call, nanoseconds; 0 on failure.
	WorkerNS int64
}

// dispatch posts body, an encoded request, to path through the fleet:
// the affinity target for key first (so repeat work lands on the
// worker whose result cache is warm), else least-loaded; failover to
// the next-best worker on retryable failure; and — when hedging is on
// — a duplicate attempt if the current one is still pending after
// HedgeAfter. Every attempt sends the same bytes. weight is the job
// count, charged to the worker's outstanding load while the attempt is
// in flight.
//
// Budgets: MaxAttempts bounds failure-driven launches only (the
// initial attempt plus failovers). The hedge has its own budget of
// one — it is a latency tool, and letting it consume a failover slot
// meant a straggler plus one real failure could exhaust the budget
// before a third worker was ever tried.
func dispatch[T any](co *Coordinator, ctx context.Context, weight int, key uint64, path string, body []byte) (*T, dispatchInfo, error) {
	type outcome struct {
		resp    *T
		err     error
		w       *worker
		idx     int // launch ordinal, for hedge-win attribution
		elapsed time.Duration
	}
	var info dispatchInfo
	results := make(chan outcome, co.cfg.MaxAttempts+1) // +1: the hedge's own slot
	tried := make(map[*worker]bool)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launched := 0
	launch := func(preferred *worker) bool {
		w := preferred
		if w == nil {
			w = co.reg.pick(tried)
		}
		if w == nil {
			return false
		}
		tried[w] = true
		w.addOutstanding(weight)
		// The per-attempt deadline is the hang guard: a worker that is
		// reachable but never answers must not stall the shard past it.
		actx, cancel := context.WithTimeout(ctx, co.cfg.AttemptTimeout)
		cancels = append(cancels, cancel)
		idx := launched
		launched++
		info.Attempts++
		go func() {
			start := time.Now()
			resp, err := post[T](actx, w.c, path, body)
			w.addOutstanding(-weight)
			results <- outcome{resp, err, w, idx, time.Since(start)}
		}()
		return true
	}
	// First attempt: the rendezvous-hash target when it is admitted and
	// not drastically busier than the least-loaded worker — a
	// cache-affinity hit — otherwise fall back to least-loaded. The
	// load bound keeps a hot key from piling work onto one node while
	// the rest of the fleet idles (bounded-load consistent hashing).
	if key != 0 && !co.cfg.DisableAffinity {
		t := co.reg.affinityTarget(key)
		if t != nil && t.isHealthy() && withinAffinityBound(t, co.reg) {
			launch(t)
			co.met.affinityHits.Add(1)
		} else {
			co.met.affinityMisses.Add(1)
		}
	}
	if launched == 0 && !launch(nil) {
		// A caller already gone answers 499, as on a worker, not 503.
		if err := ctx.Err(); err != nil {
			return nil, info, err
		}
		return nil, info, errNoWorkers
	}
	outstanding := 1
	failureLaunches := 1 // initial attempt + failovers, capped by MaxAttempts
	hedgeIdx := -1       // launch ordinal of the hedge attempt, if any
	var hedgeC <-chan time.Time
	if co.cfg.HedgeAfter > 0 {
		t := time.NewTimer(co.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				// A hedge win means the duplicate itself answered
				// first — failover retries winning is not one.
				if out.idx == hedgeIdx {
					co.met.hedgeWins.Add(1)
				}
				info.Worker = out.w.url
				info.WorkerNS = out.elapsed.Nanoseconds()
				return out.resp, info, nil
			}
			lastErr = out.err
			if ctx.Err() != nil {
				return nil, info, ctx.Err()
			}
			// The caller is still waiting (ctx is alive), so a deadline
			// in the error is this attempt's own AttemptTimeout: the
			// worker hung. That is a failover case, not a terminal one.
			hung := errors.Is(out.err, context.DeadlineExceeded)
			if client.Retryable(out.err) || hung {
				var api *client.APIError
				if hung || !errors.As(out.err, &api) {
					// An unreachable or hung worker is ejected now
					// rather than after FailThreshold heartbeats (a
					// merely-slow-but-alive one is readmitted by its
					// next successful sweep).
					out.w.markDown()
				}
				if failureLaunches < co.cfg.MaxAttempts && launch(nil) {
					failureLaunches++
					outstanding++
					co.met.retries.Add(1)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			hedgeIdx = launched
			if launch(nil) {
				outstanding++
				info.Hedged = true
				co.met.hedges.Add(1)
			} else {
				hedgeIdx = -1
			}
		case <-ctx.Done():
			return nil, info, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errNoWorkers
	}
	return nil, info, lastErr
}

// post sends body to path through c and decodes the answer as a T. It
// is the dispatch boundary where a fleet failure gets its status: an
// error that is neither a worker's own answer nor the caller's deadline
// or cancellation — a transport failure, an undecodable answer — is a
// bad gateway.
func post[T any](ctx context.Context, c *client.Client, path string, body []byte) (*T, error) {
	var out T
	err := c.PostEncoded(ctx, path, body, &out)
	var api *client.APIError
	switch {
	case err == nil:
		return &out, nil
	case errors.As(err, &api), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return nil, err
	}
	return nil, &server.StatusError{Status: http.StatusBadGateway, Err: err}
}

// Fill answers one fill request: fleet first, local fallback when the
// fleet can't. The body is encoded once for every attempt.
func (co *Coordinator) Fill(ctx context.Context, req client.FillRequest) (*client.FillResponse, error) {
	co.met.jobs.Add(1)
	body, key := encodeFill(req)
	resp, _, err := dispatch[client.FillResponse](co, ctx, 1, key, "/v1/fill", body)
	if err != nil && co.fallbackEligible(ctx, err) {
		co.met.fallbacks.Add(1)
		return post[client.FillResponse](ctx, co.local, "/v1/fill", body)
	}
	return resp, err
}

// fallbackEligible reports whether a dispatch failure should be
// retried on the local engine: the fleet was empty, kept failing at
// the transport/overload level, or hung past AttemptTimeout (the
// caller is still waiting — ctx is alive — so a deadline in err is an
// attempt's own), and a fallback engine exists. Terminal API answers
// (validation errors, job deadline overruns reported by a worker)
// pass through untouched — the local engine would only repeat them.
func (co *Coordinator) fallbackEligible(ctx context.Context, err error) bool {
	if co.local == nil || ctx.Err() != nil {
		return false
	}
	return errors.Is(err, errNoWorkers) || client.Retryable(err) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Batch shards a validated batch across the fleet and aggregates the
// results in submission order. Shard failures surface as per-item
// errors; every other shard still answers.
func (co *Coordinator) Batch(ctx context.Context, req client.BatchRequest) *client.BatchResponse {
	n := len(req.Jobs)
	items := make([]client.BatchItem, n)
	// When the batch runs as an async job, each finished shard advances
	// the job's progress counter — what GET /v1/jobs/{id} reports (and
	// dpfill -follow narrates) while the batch is in flight.
	progress := jobs.Progress(ctx)
	var done atomic.Int64
	nShards := (n + co.cfg.ShardSize - 1) / co.cfg.ShardSize
	traces := make([]server.ShardTrace, nShards)
	var wg sync.WaitGroup
	si := 0
	for lo := 0; lo < n; lo += co.cfg.ShardSize {
		hi := min(lo+co.cfg.ShardSize, n)
		wg.Add(1)
		go func(si, lo, hi int) {
			defer wg.Done()
			body, key := encodeBatch(client.BatchRequest{Jobs: req.Jobs[lo:hi], Debug: req.Debug})
			tr := co.runShard(ctx, body, key, items[lo:hi])
			tr.Lo, tr.Hi = lo, hi
			traces[si] = tr
			progress(int(done.Add(int64(hi - lo))))
		}(si, lo, hi)
		si++
	}
	wg.Wait()
	co.shardLog.record(traces)
	// Slow capture: the dispatch breakdown is the coordinator's explain
	// evidence, recorded whether or not the caller asked for debug.
	server.AnnotateShards(ctx, traces)
	failed := 0
	for _, it := range items {
		if it.Error != "" {
			failed++
		}
	}
	co.met.jobs.Add(uint64(n))
	resp := &client.BatchResponse{Results: items, Failed: failed}
	if req.Debug {
		resp.Shards = traces
	}
	return resp
}

// runShard answers one contiguous slice of a batch, sent as body, the
// shard's encoded /v1/batch request, with routing key key. It writes
// the results into the aligned out slice and returns the shard's
// dispatch trace (Lo/Hi are the caller's to fill). Every attempt and
// the local fallback send the same body. A debug batch forwards the
// flag on the sub-batch, so each worker's fill-core explain traces
// ride back on the per-item results.
func (co *Coordinator) runShard(ctx context.Context, body []byte, key uint64, out []client.BatchItem) server.ShardTrace {
	start := time.Now()
	co.met.shards.Add(1)
	resp, info, err := dispatch[client.BatchResponse](co, ctx, len(out), key, "/v1/batch", body)
	tr := server.ShardTrace{
		Worker:   info.Worker,
		Attempts: info.Attempts,
		Hedged:   info.Hedged,
		WorkerNS: info.WorkerNS,
	}
	if err != nil && co.fallbackEligible(ctx, err) {
		co.met.fallbacks.Add(1)
		tr.FellBack, tr.Worker = true, ""
		resp, err = post[client.BatchResponse](ctx, co.local, "/v1/batch", body)
	}
	tr.DispatchNS = time.Since(start).Nanoseconds()
	co.shardLatency.Observe(time.Duration(tr.DispatchNS))
	if err != nil {
		co.met.shardFailures.Add(1)
		if co.cfg.Log != nil {
			co.cfg.Log.Error("shard dispatch failed",
				"jobs", len(out), "rid", reqid.From(ctx), "err", err)
		}
		msg := fmt.Sprintf("cluster: shard dispatch failed: %v", err)
		for i := range out {
			out[i] = client.BatchItem{Error: msg}
		}
		return tr
	}
	if len(resp.Results) != len(out) {
		// A worker answering the wrong shape is a protocol violation;
		// fail the shard rather than misalign the batch.
		co.met.shardFailures.Add(1)
		msg := fmt.Sprintf("cluster: worker answered %d results for a %d-job shard", len(resp.Results), len(out))
		for i := range out {
			out[i] = client.BatchItem{Error: msg}
		}
		return tr
	}
	copy(out, resp.Results)
	return tr
}
