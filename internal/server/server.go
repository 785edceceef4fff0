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
//	POST   /v1/pipeline  netlist -> ATPG -> fill -> power, typed report
//	POST   /v1/jobs      submit a batch or pipeline asynchronously -> job ID (202)
//	GET    /v1/jobs      list retained async jobs
//	GET    /v1/jobs/{id} async job status/progress/result
//	DELETE /v1/jobs/{id} cancel an async job
//	GET    /healthz      liveness
//	GET    /stats        jobs served, cache hit rate, p50/p99 latency
//	GET    /metrics      Prometheus scrape
//
// The HTTP layer is a Front over a Backend, shared with the cluster
// coordinator: the same decoding, shape and body-size limits, error
// table, request IDs and slow capture answer on both tiers; *Server is
// the Backend that runs the work on the local engine. Every job runs
// under a per-request deadline derived from the request context; Serve
// shuts down gracefully when its context is cancelled. Async jobs run
// the exact same Batch and Pipeline calls as the synchronous endpoints
// — same validation, same cache, same engine — and, with DataDir set,
// survive a daemon restart through the internal/jobs write-ahead log.
package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/jobs"
	prom "repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/pipeline"
)

// Config tunes a Server. The zero value is valid: every limit gets a
// production-safe default.
type Config struct {
	// FrontConfig holds the settings the HTTP front shares with the
	// cluster coordinator: body, batch and circuit-size limits, the
	// async job queue, logging and the SLO.
	FrontConfig
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
	// DefaultTimeout is the per-job deadline when a request does not
	// set timeout_ms (default 30s); MaxTimeout is the ceiling requests
	// are clamped to (default 2m).
	DefaultTimeout, MaxTimeout time.Duration
	// CacheSize is the LRU entry bound keyed by (cube-set digest,
	// filler, orderer, seed); 0 means the default 256, negative
	// disables caching.
	CacheSize int
}

// withDefaults resolves every unset field.
func (c Config) withDefaults() Config {
	c.FrontConfig = c.FrontConfig.WithDefaults()
	if c.MaxRows <= 0 {
		c.MaxRows = 4096
	}
	if c.MaxCols <= 0 {
		c.MaxCols = 65536
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
	return c
}

// Server is the HTTP fill service: the Backend that runs fills,
// batches and pipelines on the local engine, behind the shared Front
// (Handler, Serve, ListenAndServe, Close). Construct with New; the zero
// value is not usable. Stop the async job workers with Close when the
// Server is discarded without going through Serve.
type Server struct {
	*Front
	cfg   Config
	eng   *engine.Engine
	cache *lruCache
	met   *metrics
	prom  *prom.Registry
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
		Front: NewFront(cfg.FrontConfig),
		cfg:   cfg,
		eng:   eng,
		cache: newLRUCache(cfg.CacheSize),
		met:   newMetrics(),
	}
	// The registry must exist before the job queue: OpenJobs replays
	// the journal immediately, and a replayed batch feeds the latency
	// and fill-stage histograms the registry wires into s.met.
	s.prom = s.newProm()
	if err := s.OpenJobs(s, nil); err != nil {
		return nil, err
	}
	s.Mount(Tier{
		Metrics: s.prom,
		Healthz: func() any { return map[string]string{"status": "ok"} },
		Stats:   func() any { return s.Stats() },
	})
	return s, nil
}

// Stats returns a snapshot of the serving statistics.
func (s *Server) Stats() Stats {
	queued, inflight := s.eng.Load()
	st := s.met.snapshot(s.cache.Len(), queued, inflight, s.eng.Bound())
	st.SlowRequests = s.SlowRequests()
	return st
}

// resolveFill validates a FillRequest and resolves its algorithms.
// DP-fill is pinned to one shard: the engine pool is the concurrency
// layer here, and per-fill fan-out would oversubscribe it. DP jobs
// carry a fresh explain trace sink (the returned *core.Trace); the
// engine writes it during the run and Fill/Batch fold it into
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
		Name:      req.Name,
		Packed:    p,
		Orderer:   ord,
		Filler:    fl,
		CountOnly: req.OmitCubes,
		Priority:  req.Priority,
		Timeout:   s.clampTimeout(req.TimeoutMillis),
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
		resp.filled = entry.Filled
	}
	resp.Cached = cached
	// Nanoseconds in float64: microsecond flooring would zero out
	// cache-hit latencies entirely.
	resp.DurationMillis = float64(elapsed.Nanoseconds()) / 1e6
}

// newEntry is the cache entry of an engine result, or the result's
// error: the job's own, or the filled matrix's when a filler broke its
// contract and left an X. A count-only result has no matrix, and its
// entry no cubes.
func newEntry(r engine.Result, tr *core.Trace) (*cachedFill, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	entry := &cachedFill{
		Perm:    r.Perm,
		Peak:    r.Peak,
		Total:   r.Total,
		Profile: r.Profile,
		Explain: tr,
	}
	if r.Filled != nil {
		filled, err := cube.NewFilled(r.Filled)
		if err != nil {
			return nil, err
		}
		entry.Filled = filled
	}
	return entry, nil
}

// Fill answers one fill job (POST /v1/fill): cache lookup, then one
// engine job.
func (s *Server) Fill(ctx context.Context, req FillRequest) (*FillResponse, error) {
	start := time.Now()
	job, resp, digest, tr, err := s.resolveFill(req)
	if err != nil {
		s.met.observeError()
		return nil, err
	}
	if entry, ok := s.cache.Get(digest, !req.OmitCubes); ok {
		finishFill(&resp, entry, req.OmitCubes, true, time.Since(start))
		if req.Debug {
			resp.Explain = entry.Explain
		}
		s.met.observeJob(time.Since(start), true)
		return &resp, nil
	}
	r := s.eng.Run(ctx, []engine.Job{job})[0]
	entry, err := newEntry(r, tr)
	if err != nil {
		s.met.observeError()
		return nil, err
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

// Batch answers one validated batch: per-job resolve/cache/dedup, one
// engine run, per-job failure isolation. It is the single execution path
// behind both POST /v1/batch and the async /v1/jobs runner, which is
// what makes an async job's result byte-identical (cubes, peak,
// total) to the synchronous answer for the same request.
func (s *Server) Batch(ctx context.Context, req BatchRequest) *BatchResponse {
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
		if entry, ok := s.cache.Get(digest, !jr.OmitCubes); ok {
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
			// result; share it instead of recomputing. The run builds
			// the matrix if any twin wants the cubes.
			engineJobs[k].CountOnly = engineJobs[k].CountOnly && jr.OmitCubes
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
		entry, err := newEntry(res, traces[k])
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			s.met.observeError()
			continue
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
			items[i] = items[jobIdx[d.job]]
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

// Pipeline answers one pipeline request — a full
// netlist→ATPG→fill→power run, or one ATPG fault shard when the request
// sets stage=atpg (the coordinator fan-out unit) — under the clamped
// deadline, feeding async progress and the per-stage metric families.
// It is the single execution path behind POST /v1/pipeline and the
// async job runner, mirroring the Batch contract: an async pipeline job
// replayed after a crash re-runs here and produces the identical report
// (up to stage timings).
func (s *Server) Pipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(req.TimeoutMillis))
	defer cancel()
	rep, err := pipeline.Run(ctx, req, pipeline.RunOptions{
		Progress: jobs.Progress(ctx),
		MaxGates: s.cfg.MaxGates,
	})
	if err != nil {
		s.met.observePipelineError()
		return nil, err
	}
	s.met.observePipeline(time.Since(start), rep.Stages)
	return rep, nil
}
