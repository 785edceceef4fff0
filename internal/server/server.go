// Package server exposes the DP-fill batch engine as a long-running
// HTTP/JSON service. It is the serving front-end of the repository:
// requests carry cube sets (inline matrices or STIL pattern text) plus
// the ordering/filling algorithms to run, jobs route through one
// shared engine worker pool bounded machine-wide, and repeated pattern
// sets are answered from an LRU keyed by the request digest without
// recomputation.
//
// Endpoints:
//
//	POST   /v1/fill      one cube set -> filled set + toggle statistics
//	POST   /v1/batch     many jobs, one engine batch, per-job isolation
//	POST   /v1/grid      every Table II-IV filler on one set, rendered table
//	POST   /v1/pipeline  netlist -> ATPG -> fill -> power, typed report
//	POST   /v1/jobs      submit a batch or pipeline asynchronously -> job ID (202)
//	GET    /v1/jobs      list retained async jobs
//	GET    /v1/jobs/{id} async job status/progress/result
//	DELETE /v1/jobs/{id} cancel an async job
//	GET    /healthz      liveness
//	GET    /stats        jobs served, cache hit rate, p50/p99 latency
//
// Every request is validated against configurable shape and body-size
// limits and runs under a per-request deadline derived from the
// request context; Serve shuts down gracefully when its context is
// cancelled. Async jobs run the exact same batch path as /v1/batch —
// same validation, same cache, same engine — and, with Config.DataDir
// set, survive a daemon restart through the internal/jobs write-ahead
// log.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fill"
	"repro/internal/jobs"
	"repro/internal/logx"
	prom "repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/pipeline"
	"repro/internal/reqid"
)

// Config tunes a Server. The zero value is valid: every limit gets a
// production-safe default.
type Config struct {
	// Engine, when non-nil, is the shared batch engine to run jobs on;
	// nil constructs one sized by Workers. Passing an Engine lets a
	// process share one machine-wide worker bound between the server
	// and other batch work.
	Engine *engine.Engine
	// Workers sizes the constructed engine when Engine is nil; <= 0
	// means GOMAXPROCS.
	Workers int
	// MaxRows and MaxCols bound accepted cube-set shapes (default
	// 4096 rows x 65536 columns).
	MaxRows, MaxCols int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchJobs bounds the jobs of one /v1/batch request (default
	// 256).
	MaxBatchJobs int
	// MaxGates bounds the resolved circuit size of one /v1/pipeline
	// request (default 250000 — the whole ITC'99 catalog fits, but a
	// one-line spec cannot demand an unbounded synthesis+ATPG run).
	MaxGates int
	// DefaultTimeout is the per-job deadline when a request does not
	// set timeout_ms (default 30s); MaxTimeout is the ceiling requests
	// are clamped to (default 2m).
	DefaultTimeout, MaxTimeout time.Duration
	// CacheSize is the LRU entry bound keyed by (cube-set digest,
	// filler, orderer, seed); 0 means the default 256, negative
	// disables caching.
	CacheSize int
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is cancelled (default 5s).
	ShutdownGrace time.Duration
	// DataDir, when set, persists the async job queue (/v1/jobs) to a
	// write-ahead log there: accepted jobs survive a daemon restart —
	// settled ones answer from their journaled results, unsettled ones
	// re-run. Empty keeps the async API in memory only.
	DataDir string
	// MaxQueuedJobs bounds async jobs accepted but not yet settled;
	// submits past it answer 429 (default 256).
	MaxQueuedJobs int
	// JobRetention bounds how many settled async jobs stay queryable
	// (default 256; the oldest are evicted first).
	JobRetention int
	// JobWorkers is how many async jobs execute concurrently (default
	// 1 — strict FIFO; each batch already parallelizes on the engine).
	JobWorkers int
	// Log, when non-nil, receives one structured access-log record per
	// request (method, path, status, duration, trace/span IDs) plus
	// job-completion records, so fleet operators can correlate a
	// request across coordinator and worker logs. nil disables logging.
	Log *logx.Logger
	// SlowThreshold is the latency SLO: requests over it are counted as
	// SLO breaches and their full trace+explain snapshot lands in the
	// /stats slow_requests ring. 0 means the default 1s; negative
	// disables slow capture and the SLO families.
	SlowThreshold time.Duration
}

// withDefaults resolves every unset field.
func (c Config) withDefaults() Config {
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.MaxCols <= 0 {
		c.MaxCols = 65536
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 256
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 250000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

// Server is the HTTP fill service. Construct with New; the zero value
// is not usable. Stop the async job workers with Close when the
// Server is discarded without going through Serve.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	cache *lruCache
	met   *metrics
	jobs  *jobs.Manager
	mux   *http.ServeMux
	prom  *prom.Registry
	slow  *SlowRing
	slo   *prom.SLO
}

// New returns a Server ready to serve via Handler, Serve or
// ListenAndServe. With Config.DataDir set it replays the async job
// journal first, so jobs accepted before a crash are re-run (or their
// recorded results re-served) before traffic arrives; an unreadable
// journal or data directory is the only error path.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(cfg.Workers)
	}
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		cache: newLRUCache(cfg.CacheSize),
		met:   newMetrics(),
	}
	if cfg.SlowThreshold > 0 {
		s.slow = NewSlowRing(slowRingSize)
		s.slo = prom.NewSLO(cfg.SlowThreshold, 0)
	}
	// The registry must exist before the job manager: jobs.Open replays
	// the journal immediately, and a replayed batch feeds the latency
	// and fill-stage histograms the registry wires into s.met.
	s.prom = s.newProm()
	// The async runner is the exact path the synchronous endpoints
	// use (runJob dispatches a journaled payload to the batch or
	// pipeline executor); determinism of the fill algorithms makes
	// this the crash contract: a job replayed after a daemon kill
	// re-runs here and produces the same cubes, peak and total the
	// lost run would have.
	mgr, err := jobs.Open(jobs.Config{
		Runner:    s.runJob,
		Dir:       cfg.DataDir,
		MaxQueued: cfg.MaxQueuedJobs,
		Retention: cfg.JobRetention,
		Workers:   cfg.JobWorkers,
		Log:       cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fill", s.handleFill)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("POST /v1/pipeline", s.handlePipeline)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.prom.Handler())
	jobs.Mount(mux, mgr, s.decodeJobSubmit)
	s.mux = mux
	return s, nil
}

// Close stops the async job workers and the journal. Jobs still
// queued or running stay accepted in the journal and resume on the
// next New over the same DataDir. Serve calls Close on shutdown;
// Handler-only embedders (tests, custom muxes) call it themselves.
func (s *Server) Close() error { return s.jobs.Close() }

// Handler returns the service's HTTP handler, for embedding under a
// custom mux or an httptest server. Every request passes through
// reqid.Middleware: an incoming X-Request-ID is echoed in the
// response (and minted when absent), carried on the request context,
// and written to the access log when Config.Log is set. Inside the
// tracing layer, CaptureSlow measures every /v1/* request against the
// SLO threshold and snapshots breaches into the slow-request ring.
func (s *Server) Handler() http.Handler {
	return reqid.Middleware(s.cfg.Log, CaptureSlow(s.slow, s.slo, s.mux))
}

// Metrics returns the tier's Prometheus scrape handler, for mounting
// on an admin mux (-debug-addr) alongside pprof.
func (s *Server) Metrics() http.Handler { return s.prom.Handler() }

// Stats returns a snapshot of the serving statistics.
func (s *Server) Stats() Stats {
	queued, inflight := s.eng.Load()
	st := s.met.snapshot(s.cache.Len(), queued, inflight, s.eng.Bound())
	st.SlowRequests = s.slow.Snapshot()
	return st
}

// Serve accepts connections on l until ctx is cancelled, then shuts
// down gracefully: in-flight requests get ShutdownGrace to finish and
// the async job workers are stopped (journaled jobs resume on the
// next start). It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	defer s.Close()
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// resolveFill validates a FillRequest and resolves its algorithms.
// DP-fill is pinned to one shard: the engine pool is the concurrency
// layer here, and per-fill fan-out would oversubscribe it. DP jobs
// carry a fresh explain trace sink (the returned *core.Trace); the
// engine writes it during the run and runFill/runBatch fold it into
// the stage histograms afterwards. Non-DP fillers return a nil trace.
func (s *Server) resolveFill(req FillRequest) (engine.Job, FillResponse, string, *core.Trace, error) {
	var job engine.Job
	var resp FillResponse
	p, err := s.parseSet(req.Cubes, req.STIL)
	if err != nil {
		return job, resp, "", nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	ordName := req.Orderer
	if ordName == "" {
		ordName = "tool"
	}
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		return job, resp, "", nil, badRequestf("%v", err)
	}
	fl, tr, err := serverFiller(req.Filler, seed)
	if err != nil {
		return job, resp, "", nil, badRequestf("%v", err)
	}
	job = engine.Job{
		Name:     req.Name,
		Packed:   p,
		Orderer:  ord,
		Filler:   fl,
		Priority: req.Priority,
		Timeout:  s.clampTimeout(req.TimeoutMillis),
	}
	resp = FillResponse{
		Name:     req.Name,
		Rows:     p.Len(),
		Width:    p.Width,
		XPercent: p.XPercent(),
		Orderer:  ord.Name(),
		Filler:   fl.Name(),
	}
	digest := fillDigest(p, ord.Name(), fl.Name(), seed)
	return job, resp, digest, tr, nil
}

// serverFiller resolves a filler name with DP-fill pinned to a single
// shard (see resolveFill). DP-fill is built with the returned trace
// sink attached; each call builds a private filler+sink pair, so
// concurrent jobs never share one. Other fillers get a nil trace.
func serverFiller(name string, seed int64) (fill.Filler, *core.Trace, error) {
	tr := &core.Trace{}
	fl, err := fill.ByName(name, seed, core.Options{Shards: 1, Trace: tr})
	if err != nil {
		return nil, nil, err
	}
	if !fill.IsDP(fl) {
		tr = nil
	}
	return fl, tr, nil
}

// finishFill completes a response from either a cache entry or an
// engine result.
func finishFill(resp *FillResponse, entry *cachedFill, omitCubes, cached bool, elapsed time.Duration) {
	resp.Perm = entry.Perm
	resp.Peak = entry.Peak
	resp.Total = entry.Total
	resp.Profile = entry.Profile
	if !omitCubes {
		resp.Cubes = entry.Filled.Strings()
	}
	resp.Cached = cached
	// Nanoseconds in float64: microsecond flooring would zero out
	// cache-hit latencies entirely.
	resp.DurationMillis = float64(elapsed.Nanoseconds()) / 1e6
}

// runFill answers one fill job: cache lookup, then one engine job.
func (s *Server) runFill(ctx context.Context, req FillRequest) (*FillResponse, error) {
	start := time.Now()
	job, resp, digest, tr, err := s.resolveFill(req)
	if err != nil {
		return nil, err
	}
	if entry, ok := s.cache.Get(digest); ok {
		finishFill(&resp, entry, req.OmitCubes, true, time.Since(start))
		if req.Debug {
			resp.Explain = entry.Explain
		}
		s.met.observeJob(time.Since(start), true)
		return &resp, nil
	}
	r := s.eng.Run(ctx, []engine.Job{job})[0]
	if r.Err != nil {
		s.met.observeError()
		return nil, r.Err
	}
	entry := &cachedFill{
		Filled:  r.Filled,
		Perm:    r.Perm,
		Peak:    r.Peak,
		Total:   r.Total,
		Profile: r.Profile,
		Explain: tr,
	}
	s.cache.Put(digest, entry)
	finishFill(&resp, entry, req.OmitCubes, false, time.Since(start))
	if tr != nil {
		s.met.observeFillTrace(tr)
		AnnotateExplain(ctx, tr)
		if req.Debug {
			resp.Explain = tr
		}
	}
	// Metrics record the engine-reported execution time, keeping
	// /v1/fill and /v1/batch miss samples comparable.
	s.met.observeJob(r.Duration, false)
	return &resp, nil
}

func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	var req FillRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, err := s.runFill(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.validateBatch(req); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.runBatch(r.Context(), req))
}

// validateBatch applies the batch shape limits shared by the
// synchronous handler and async job submission.
func (s *Server) validateBatch(req BatchRequest) error {
	if len(req.Jobs) == 0 {
		return badRequestf("batch carries no jobs")
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		return badRequestf("%d jobs exceed the batch limit %d", len(req.Jobs), s.cfg.MaxBatchJobs)
	}
	return nil
}

// runBatch answers one batch: per-job resolve/cache/dedup, one engine
// run, per-job failure isolation. It is the single execution path
// behind both POST /v1/batch and the async /v1/jobs runner, which is
// what makes an async job's result byte-identical (cubes, peak,
// total) to the synchronous answer for the same request.
func (s *Server) runBatch(ctx context.Context, req BatchRequest) *BatchResponse {
	// As an async job, the batch reports progress whenever a slice of
	// items reaches a final outcome: once after the resolve/cache pass,
	// then per engine result as misses are folded in.
	progress := jobs.Progress(ctx)
	done := 0
	items := make([]BatchItem, len(req.Jobs))
	resps := make([]FillResponse, len(req.Jobs))
	starts := make([]time.Time, len(req.Jobs))
	var engineJobs []engine.Job
	var jobIdx []int                // engineJobs[k] answers items[jobIdx[k]]
	var digests []string            // aligned with engineJobs
	var traces []*core.Trace        // aligned with engineJobs; nil for non-DP
	pending := make(map[string]int) // digest -> index into engineJobs
	type dupRef struct{ item, job int }
	var dups []dupRef
	for i, jr := range req.Jobs {
		starts[i] = time.Now()
		debug := req.Debug || jr.Debug
		job, resp, digest, tr, err := s.resolveFill(jr)
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			s.met.observeError()
			continue
		}
		resps[i] = resp
		if entry, ok := s.cache.Get(digest); ok {
			finishFill(&resps[i], entry, jr.OmitCubes, true, time.Since(starts[i]))
			if debug {
				resps[i].Explain = entry.Explain
			}
			s.met.observeJob(time.Since(starts[i]), true)
			items[i] = BatchItem{Result: &resps[i]}
			continue
		}
		// Dedup key includes the clamped timeout: two identical jobs
		// only share an outcome when they would also fail identically
		// (a shorter-deadline twin may time out where the longer one
		// succeeds).
		pendingKey := fmt.Sprintf("%s|%d", digest, job.Timeout)
		if k, ok := pending[pendingKey]; ok {
			// An identical job earlier in this batch will compute the
			// result; share it instead of recomputing.
			dups = append(dups, dupRef{item: i, job: k})
			continue
		}
		pending[pendingKey] = len(engineJobs)
		engineJobs = append(engineJobs, job)
		jobIdx = append(jobIdx, i)
		digests = append(digests, digest)
		traces = append(traces, tr)
	}
	done = len(req.Jobs) - len(engineJobs) - len(dups)
	progress(done)
	results := s.eng.Run(ctx, engineJobs)
	entries := make([]*cachedFill, len(engineJobs))
	for k, res := range results {
		i := jobIdx[k]
		done++
		progress(done)
		if res.Err != nil {
			items[i] = BatchItem{Error: res.Err.Error()}
			s.met.observeError()
			continue
		}
		entry := &cachedFill{
			Filled:  res.Filled,
			Perm:    res.Perm,
			Peak:    res.Peak,
			Total:   res.Total,
			Profile: res.Profile,
			Explain: traces[k],
		}
		entries[k] = entry
		s.cache.Put(digests[k], entry)
		finishFill(&resps[i], entry, req.Jobs[i].OmitCubes, false, res.Duration)
		if tr := traces[k]; tr != nil {
			s.met.observeFillTrace(tr)
			AnnotateExplain(ctx, tr)
			if req.Debug || req.Jobs[i].Debug {
				resps[i].Explain = tr
			}
		}
		s.met.observeJob(res.Duration, false)
		items[i] = BatchItem{Result: &resps[i]}
	}
	for _, d := range dups {
		i := d.item
		entry := entries[d.job]
		if entry == nil {
			items[i] = BatchItem{Error: results[d.job].Err.Error()}
			s.met.observeError()
			continue
		}
		// The duplicate's latency is its real wall-clock wait: resolve
		// plus the engine run that produced the shared result.
		finishFill(&resps[i], entry, req.Jobs[i].OmitCubes, true, time.Since(starts[i]))
		if req.Debug || req.Jobs[i].Debug {
			resps[i].Explain = entry.Explain
		}
		s.met.observeJob(time.Since(starts[i]), true)
		items[i] = BatchItem{Result: &resps[i]}
	}
	failed := 0
	for _, it := range items {
		if it.Error != "" {
			failed++
		}
	}
	return &BatchResponse{Results: items, Failed: failed}
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := s.parseSet(req.Cubes, req.STIL)
	if err != nil {
		s.writeError(w, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	ordName := req.Orderer
	if ordName == "" {
		ordName = "tool"
	}
	ord, err := order.ByName(ordName, seed)
	if err != nil {
		s.writeError(w, badRequestf("%v", err))
		return
	}
	// The baseline fillers walk trits: unpack the set once for all of
	// them rather than once per job.
	set := p.Unpack(nil)
	fillers := fill.All(seed, core.Options{Shards: 1})
	jobs := make([]engine.Job, len(fillers))
	for i, fl := range fillers {
		jobs[i] = engine.Job{
			Name:    fl.Name(),
			Set:     set,
			Packed:  p,
			Orderer: ord,
			Filler:  fl,
			Timeout: s.cfg.MaxTimeout,
		}
	}
	results := s.eng.Run(r.Context(), jobs)
	if err := engine.FirstErr(results); err != nil {
		s.met.observeError()
		s.writeError(w, err)
		return
	}
	name := req.Name
	if name == "" {
		name = "set"
	}
	row := exp.PeakRow{
		Ckt:       name,
		Peaks:     make([]int, len(results)),
		Durations: make([]time.Duration, len(results)),
	}
	for i, res := range results {
		row.Peaks[i] = res.Peak
		row.Durations[i] = res.Duration
		s.met.observeUncachedJob(res.Duration)
	}
	table, err := exp.TableText(func(w io.Writer) error {
		return exp.RenderPeakTable(w, ord.Name(), []exp.PeakRow{row})
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	durs := make([]float64, len(results))
	for i, res := range results {
		durs[i] = float64(res.Duration.Nanoseconds()) / 1e6
	}
	_, best := row.Best()
	writeJSON(w, http.StatusOK, GridResponse{
		Name:            name,
		Orderer:         ord.Name(),
		FillNames:       exp.FillNames,
		Peaks:           row.Peaks,
		DurationsMillis: durs,
		Best:            exp.FillNames[best],
		Table:           table,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// decode reads a size-limited, strict JSON body into v, answering the
// error itself (and returning false) on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return DecodeJSON(w, r, s.cfg.MaxBodyBytes, v)
}

// writeError maps an error to its HTTP status: validation failures are
// 400, deadline overruns 504, client disconnects 499 (nginx's
// convention), anything else 422 (the job itself failed).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusUnprocessableEntity
	var bad badRequestError
	switch {
	case errors.As(err, &bad), errors.Is(err, pipeline.ErrBadRequest):
		status = http.StatusBadRequest
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
