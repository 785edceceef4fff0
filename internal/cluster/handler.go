package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/pipeline"
	"repro/internal/reqid"
	"repro/internal/server"
)

// Stats is the coordinator's GET /stats payload.
type Stats struct {
	// UptimeSeconds is the time since the coordinator was constructed.
	UptimeSeconds float64 `json:"uptime_s"`
	// WorkersTotal and WorkersHealthy size the fleet and its admitted
	// subset.
	WorkersTotal   int `json:"workers_total"`
	WorkersHealthy int `json:"workers_healthy"`
	// JobsDispatched counts jobs accepted for dispatch regardless of
	// outcome — each batch job, each single fill, each grid — over
	// fleet and fallback alike. ShardsDispatched counts the worker
	// shards batches were split into.
	JobsDispatched   uint64 `json:"jobs_dispatched"`
	ShardsDispatched uint64 `json:"shards_dispatched"`
	// ShardRetries counts failover re-dispatches to another worker;
	// ShardFailures shards whose every attempt failed.
	ShardRetries  uint64 `json:"shard_retries"`
	ShardFailures uint64 `json:"shard_failures"`
	// HedgesLaunched counts duplicate straggler attempts; HedgeWins
	// dispatches where more than one attempt ran and one succeeded.
	HedgesLaunched uint64 `json:"hedges_launched"`
	HedgeWins      uint64 `json:"hedge_wins"`
	// Fallbacks counts dispatches answered by the local in-process
	// engine because the fleet could not.
	Fallbacks uint64 `json:"fallbacks"`
	// AffinityHits counts dispatches whose first attempt went to the
	// request's rendezvous-hash target (a warm result cache);
	// AffinityMisses ones whose target was ejected or unadmitted, so
	// least-loaded routing took over.
	AffinityHits   uint64 `json:"affinity_hits"`
	AffinityMisses uint64 `json:"affinity_misses"`
	// Workers is the per-worker registry view.
	Workers []WorkerStatus `json:"workers"`
	// RecentShards is a bounded ring of the latest shard dispatch
	// traces, newest first — the on-demand view of where batch slices
	// went and what each hop cost.
	RecentShards []server.ShardTrace `json:"recent_shards,omitempty"`
	// SlowRequests is the bounded ring of captured SLO breaches, newest
	// first, each carrying its per-shard dispatch breakdown. Absent
	// when slow capture is disabled or nothing has breached yet.
	SlowRequests []server.SlowRequest `json:"slow_requests,omitempty"`
}

// metrics is the coordinator's dispatch accounting, all atomics.
type metrics struct {
	start          time.Time
	jobs           atomic.Uint64
	shards         atomic.Uint64
	retries        atomic.Uint64
	shardFailures  atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	fallbacks      atomic.Uint64
	affinityHits   atomic.Uint64
	affinityMisses atomic.Uint64
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

// shardRingSize bounds the /stats recent-shards ring.
const shardRingSize = 32

// shardRing retains the most recent shard traces for /stats. Records
// happen once per batch (not per shard), so the mutex is nowhere near
// the dispatch hot path.
type shardRing struct {
	mu sync.Mutex
	// dpvet:guardedby mu
	buf [shardRingSize]server.ShardTrace
	// dpvet:guardedby mu
	next int
	// dpvet:guardedby mu
	n int
}

func (r *shardRing) record(trs []server.ShardTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tr := range trs {
		r.buf[r.next] = tr
		r.next = (r.next + 1) % shardRingSize
		if r.n < shardRingSize {
			r.n++
		}
	}
}

// snapshot returns the retained traces, newest first.
func (r *shardRing) snapshot() []server.ShardTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]server.ShardTrace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+shardRingSize)%shardRingSize])
	}
	return out
}

// Stats returns a snapshot of the coordinator's dispatch statistics
// and the registry's per-worker view.
func (co *Coordinator) Stats() Stats {
	return Stats{
		UptimeSeconds:    time.Since(co.met.start).Seconds(),
		WorkersTotal:     len(co.reg.workers),
		WorkersHealthy:   co.reg.healthyCount(),
		JobsDispatched:   co.met.jobs.Load(),
		ShardsDispatched: co.met.shards.Load(),
		ShardRetries:     co.met.retries.Load(),
		ShardFailures:    co.met.shardFailures.Load(),
		HedgesLaunched:   co.met.hedges.Load(),
		HedgeWins:        co.met.hedgeWins.Load(),
		Fallbacks:        co.met.fallbacks.Load(),
		AffinityHits:     co.met.affinityHits.Load(),
		AffinityMisses:   co.met.affinityMisses.Load(),
		Workers:          co.reg.snapshot(),
		RecentShards:     co.shardLog.snapshot(),
		SlowRequests:     co.slow.Snapshot(),
	}
}

// Handler returns the coordinator's HTTP handler: the same /v1/*
// surface dpfilld serves, plus cluster-level /healthz and /stats.
// Every request passes through reqid.Middleware, so an X-Request-ID
// (minted here when the caller sent none) is echoed in the response,
// forwarded to every worker the request touches, and written to the
// access log when Config.Log is set. Inside the tracing layer,
// CaptureSlow measures every /v1/* request against the SLO threshold
// and snapshots breaches — shard dispatch breakdown included — into
// the slow-request ring.
func (co *Coordinator) Handler() http.Handler {
	return reqid.Middleware(co.cfg.Log, server.CaptureSlow(co.slow, co.slo, co.mux))
}

// Metrics returns the coordinator's Prometheus scrape handler, for
// mounting on an admin mux (-debug-addr) alongside pprof.
func (co *Coordinator) Metrics() http.Handler { return co.prom.Handler() }

// Serve runs the heartbeat loop and accepts connections on l until
// ctx is cancelled, then shuts down gracefully: in-flight requests
// get ShutdownGrace and the async job workers are stopped (journaled
// jobs resume on the next start).
func (co *Coordinator) Serve(ctx context.Context, l net.Listener) error {
	defer co.Close()
	hctx, stop := context.WithCancel(ctx)
	defer stop()
	go co.Run(hctx)
	hs := &http.Server{
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), co.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (co *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return co.Serve(ctx, l)
}

func (co *Coordinator) handleFill(w http.ResponseWriter, r *http.Request) {
	var req client.FillRequest
	if !co.decode(w, r, &req) {
		return
	}
	resp, err := co.fillThrough(r.Context(), req)
	if err != nil {
		co.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if !co.decode(w, r, &req) {
		return
	}
	if !co.validateBatch(w, req) {
		return
	}
	writeJSON(w, http.StatusOK, co.batchThrough(r.Context(), req))
}

// validateBatch applies the batch shape limits shared by the
// synchronous handler and async job submission, answering the request
// itself (and returning false) on violation — so a future limit change
// cannot diverge between the two admission paths.
func (co *Coordinator) validateBatch(w http.ResponseWriter, req client.BatchRequest) bool {
	if len(req.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch carries no jobs"})
		return false
	}
	if len(req.Jobs) > co.cfg.MaxBatchJobs {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("%d jobs exceed the batch limit %d", len(req.Jobs), co.cfg.MaxBatchJobs)})
		return false
	}
	return true
}

func (co *Coordinator) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req client.GridRequest
	if !co.decode(w, r, &req) {
		return
	}
	resp, err := co.gridThrough(r.Context(), req)
	if err != nil {
		co.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"workers_total":   len(co.reg.workers),
		"workers_healthy": co.reg.healthyCount(),
	})
}

func (co *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, co.Stats())
}

// errorResponse mirrors the worker's uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// decode reads a size-limited, strict JSON body into v with the fill
// tier's decoder, answering the error itself (and returning false) on
// failure.
func (co *Coordinator) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return server.DecodeJSON(w, r, co.cfg.MaxBodyBytes, v)
}

// coordJobSubmit is the coordinator's POST /v1/jobs body: either a
// batch (the same schema and limits the synchronous batch handler
// applies) or one pipeline run, never both — the same contract
// dpfilld itself accepts, so a submit script works against either.
type coordJobSubmit struct {
	Jobs     []client.FillRequest    `json:"jobs,omitempty"`
	Debug    bool                    `json:"debug,omitempty"`
	Pipeline *client.PipelineRequest `json:"pipeline,omitempty"`
}

// decodeJobSubmit validates a POST /v1/jobs body and returns the
// canonical payload the job journal stores: the BatchRequest itself
// for batch submits, a {"pipeline": ...} envelope for pipeline
// submits.
func (co *Coordinator) decodeJobSubmit(w http.ResponseWriter, r *http.Request) (json.RawMessage, int, bool) {
	var req coordJobSubmit
	if !co.decode(w, r, &req) {
		return nil, 0, false
	}
	if req.Pipeline != nil {
		if len(req.Jobs) > 0 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "submit carries both jobs and a pipeline; pick one"})
			return nil, 0, false
		}
		if err := req.Pipeline.Validate(); err != nil {
			// Validation failures wrap pipeline.ErrBadRequest; the
			// taxonomy sink maps them to 400 and serializes once.
			co.writeError(w, err)
			return nil, 0, false
		}
		payload, err := json.Marshal(pipelineEnvelope{Pipeline: req.Pipeline})
		if err != nil {
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: "internal error: encoding job payload"})
			return nil, 0, false
		}
		return payload, req.Pipeline.Steps(), true
	}
	batch := client.BatchRequest{Jobs: req.Jobs, Debug: req.Debug}
	if !co.validateBatch(w, batch) {
		return nil, 0, false
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: "internal error: encoding job payload"})
		return nil, 0, false
	}
	return payload, len(batch.Jobs), true
}

// writeError maps a dispatch failure to its HTTP status: worker API
// answers pass through verbatim, an empty fleet is 503, client
// disconnects 499, deadline overruns 504, and transport-level fleet
// failures surface as 502.
func (co *Coordinator) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var api *client.APIError
	switch {
	case errors.As(err, &api):
		// Pass the worker's answer through verbatim: same status, same
		// message, as if the caller had spoken to the worker directly.
		writeJSON(w, api.Status, errorResponse{Error: api.Message})
		return
	case errors.Is(err, pipeline.ErrBadRequest):
		// Pipeline validation happens on the coordinator too (the
		// sharded path needs the request before any worker sees it).
		status = http.StatusBadRequest
	case errors.Is(err, errNoWorkers):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
