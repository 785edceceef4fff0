package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
	prom "repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/reqid"
)

// Backend runs a serving tier's work behind the shared HTTP front:
// *Server runs it on the local engine, cluster.Coordinator shards it
// across a dpfilld fleet. The front decodes and validates every
// request before a Backend sees it, and answers every error a Backend
// returns through one error→status table.
type Backend interface {
	// Fill answers one cube set (POST /v1/fill).
	Fill(ctx context.Context, req FillRequest) (*FillResponse, error)
	// Batch answers a validated batch (POST /v1/batch and batch jobs);
	// a job's failure is its own item's error.
	Batch(ctx context.Context, req BatchRequest) *BatchResponse
	// Pipeline answers one pipeline run or ATPG shard (POST
	// /v1/pipeline and pipeline jobs).
	Pipeline(ctx context.Context, req pipeline.Request) (*pipeline.Report, error)
}

// FrontConfig is what the shared front reads. Both tiers' Configs
// embed it, so these settings are declared and defaulted once; the
// zero value gets production-safe defaults.
type FrontConfig struct {
	// MaxBodyBytes bounds request bodies (default 8 MiB); MaxBatchJobs
	// the jobs of one batch or batch job submit (default 256); MaxGates
	// the resolved circuit of one pipeline run (default 250000 — the
	// whole ITC'99 catalog fits, but a one-line spec cannot demand an
	// unbounded synthesis+ATPG run).
	MaxBodyBytes int64
	MaxBatchJobs int
	MaxGates     int
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is cancelled (default 5s).
	ShutdownGrace time.Duration
	// DataDir, when set, journals the async job queue (/v1/jobs) there:
	// accepted jobs survive a restart — settled ones answer from their
	// journaled results, unsettled ones re-run. Empty keeps the queue in
	// memory only.
	DataDir string
	// MaxQueuedJobs bounds jobs accepted but not settled (past it
	// submits answer 429), JobRetention the settled jobs kept queryable,
	// and JobWorkers the jobs run at once (defaults 256, 256 and 1).
	MaxQueuedJobs, JobRetention, JobWorkers int
	// Log, when non-nil, receives one structured access-log record per
	// request (with its trace and span IDs) plus job and dispatch
	// events, so a request can be followed across coordinator and
	// worker logs. The request and job records are info-level: a
	// logger whose floor is above info keeps only the failures. nil
	// disables logging.
	Log *slog.Logger
	// SlowThreshold is the latency SLO: slower requests count as
	// breaches and their trace and explain evidence land in the /stats
	// slow_requests ring. 0 means 1s; negative disables slow capture and
	// the SLO families.
	SlowThreshold time.Duration
}

// LoggerFromFlags resolves the daemons' -access-log, -log-level and
// -log-format flags into a logger writing to w: logfmt through
// slog.TextHandler or one JSON object per line through
// slog.JSONHandler. A bad level or format is an error whether or not
// access logging is on. The per-request access records and the
// job-settle records are info-level; with enabled false the floor is
// raised to at least warn, which drops them and keeps the error
// records (a failed shard dispatch).
func LoggerFromFlags(w io.Writer, enabled bool, level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{}
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "debug":
		opts.Level = slog.LevelDebug
	case "", "info":
		opts.Level = slog.LevelInfo
	case "warn", "warning":
		opts.Level = slog.LevelWarn
	case "error":
		opts.Level = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	if !enabled {
		opts.Level = max(opts.Level.Level(), slog.LevelWarn)
	}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "logfmt", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want logfmt or json)", format)
	}
	return slog.New(h), nil
}

// WithDefaults resolves every unset field.
func (c FrontConfig) WithDefaults() FrontConfig {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 256
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 250000
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

// Tier is what a serving tier adds to the front besides its Backend.
type Tier struct {
	// Metrics is the tier's Prometheus registry, served on GET /metrics.
	Metrics *prom.Registry
	// Healthz and Stats render the GET /healthz and GET /stats payloads.
	Healthz, Stats func() any
	// Run, when set, runs for as long as Serve serves: the
	// coordinator's heartbeat loop.
	Run func(context.Context)
	// Close, when set, runs after Close has stopped the job queue: the
	// coordinator's local fallback service.
	Close func() error
}

// Front is the HTTP layer both serving tiers share: body decoding,
// batch limits, the /v1/jobs submit decoder and journaled-payload
// runner, the error→status table, request IDs and slow capture, and
// graceful Serve. A tier's constructor builds it in three steps —
// NewFront, OpenJobs, Mount — and builds its registry between them in
// the order its journal replay needs.
type Front struct {
	cfg     FrontConfig
	backend Backend
	tier    Tier
	jobs    *jobs.Manager
	mux     *http.ServeMux
	slow    *SlowRing
	slo     *prom.SLO
}

// NewFront returns a front over cfg (defaults already resolved), with
// the slow-request ring and SLO when SlowThreshold enables them.
func NewFront(cfg FrontConfig) *Front {
	f := &Front{cfg: cfg, mux: http.NewServeMux()}
	if cfg.SlowThreshold > 0 {
		f.slow = NewSlowRing(slowRingSize)
		f.slo = prom.NewSLO(cfg.SlowThreshold, 0)
	}
	return f
}

// OpenJobs opens the async job queue over b, replaying DataDir's
// journal at once: any registry a replayed job records into must exist
// first. start, when non-nil, holds the job workers until closed. Jobs
// make the backend calls the synchronous endpoints make — the crash
// contract: a job replayed after a kill produces what the lost run
// would have.
func (f *Front) OpenJobs(b Backend, start <-chan struct{}) error {
	f.backend = b
	m, err := jobs.Open(jobs.Config{
		Runner:    f.runJob,
		Dir:       f.cfg.DataDir,
		MaxQueued: f.cfg.MaxQueuedJobs,
		Retention: f.cfg.JobRetention,
		Workers:   f.cfg.JobWorkers,
		Start:     start,
		Log:       f.cfg.Log,
	})
	if err != nil {
		return err
	}
	f.jobs = m
	return nil
}

// Mount routes the shared /v1/* surface onto the backend and the tier's
// own /healthz, /stats and /metrics.
func (f *Front) Mount(t Tier) {
	f.tier = t
	f.mux.HandleFunc("POST /v1/fill", f.handleFill)
	f.mux.HandleFunc("POST /v1/batch", f.handleBatch)
	f.mux.HandleFunc("POST /v1/pipeline", f.handlePipeline)
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, t.Healthz())
	})
	f.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, t.Stats())
	})
	f.mux.Handle("GET /metrics", t.Metrics.Handler())
	jobs.Mount(f.mux, f.jobs, f.decodeJobSubmit)
}

// RegisterProm adds the front's families to a tier's registry, each
// series labelled tier=<tier> ("worker" or "coord"): async job
// occupancy, the job journal and the SLO. They read the job queue at
// scrape time, so a registry built before OpenJobs may carry them.
func (f *Front) RegisterProm(r *prom.Registry, tier string) {
	l := prom.Label{Name: "tier", Value: tier}
	r.GaugeFunc("dpfill_async_jobs_active",
		"Async jobs queued or running.",
		func() float64 { active, _ := f.jobs.Occupancy(); return float64(active) }, l)
	r.GaugeFunc("dpfill_async_jobs_retained",
		"Settled async jobs still queryable.",
		func() float64 { _, retained := f.jobs.Occupancy(); return float64(retained) }, l)
	r.CounterFunc("dpfill_wal_records_total",
		"Records appended to the async job journal.",
		func() uint64 { return f.jobs.WALAppends() }, l)
	r.GaugeFunc("dpfill_wal_journal_bytes",
		"Async job journal size on disk.",
		func() float64 { return float64(f.jobs.JournalBytes()) }, l)
	if f.slo != nil {
		f.slo.Register(r, tier)
	}
}

// SlowRequests returns the captured SLO breaches, newest first.
func (f *Front) SlowRequests() []SlowRequest { return f.slow.Snapshot() }

// Handler returns the tier's HTTP handler, for embedding under a
// custom mux or an httptest server. reqid.Middleware echoes (or mints)
// each request's X-Request-ID, carries it on the context — a
// coordinator forwards it to every worker — and logs the request when
// Log is set; inside it, CaptureSlow snapshots SLO breaches.
func (f *Front) Handler() http.Handler {
	return reqid.Middleware(f.cfg.Log, CaptureSlow(f.slow, f.slo, f.mux))
}

// Close stops the async job workers and the journal, then the tier's
// own resources; unsettled jobs resume on the next start over the same
// DataDir. Serve calls Close on shutdown; Handler-only embedders call
// it themselves.
func (f *Front) Close() error {
	err := f.jobs.Close()
	if f.tier.Close != nil {
		if cerr := f.tier.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Serve runs the tier's background loop, if any, and accepts
// connections on l until ctx is cancelled, then shuts down gracefully:
// in-flight requests get ShutdownGrace to finish and Close runs. It
// returns nil after a clean shutdown.
func (f *Front) Serve(ctx context.Context, l net.Listener) error {
	defer f.Close()
	if f.tier.Run != nil {
		rctx, stop := context.WithCancel(ctx)
		defer stop()
		go f.tier.Run(rctx)
	}
	hs := &http.Server{
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), f.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (f *Front) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ctx, l)
}

func (f *Front) handleFill(w http.ResponseWriter, r *http.Request) {
	var req FillRequest
	if !DecodeJSON(w, r, f.cfg.MaxBodyBytes, &req) {
		return
	}
	resp, err := f.backend.Fill(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !DecodeJSON(w, r, f.cfg.MaxBodyBytes, &req) {
		return
	}
	if err := f.validateBatch(req); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f.backend.Batch(r.Context(), req))
}

func (f *Front) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req pipeline.Request
	if !DecodeJSON(w, r, f.cfg.MaxBodyBytes, &req) {
		return
	}
	rep, err := f.backend.Pipeline(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// validateBatch applies the batch shape limits shared by the
// synchronous handler and async job submission.
func (f *Front) validateBatch(req BatchRequest) error {
	if len(req.Jobs) == 0 {
		return badRequestf("batch carries no jobs")
	}
	if len(req.Jobs) > f.cfg.MaxBatchJobs {
		return badRequestf("%d jobs exceed the batch limit %d", len(req.Jobs), f.cfg.MaxBatchJobs)
	}
	return nil
}

// jobSubmit is the POST /v1/jobs body: either a batch (the same
// schema and limits as POST /v1/batch) or one pipeline run, never
// both. The strict decoder rejects unknown fields, so a batch payload
// cannot smuggle a "pipeline" key past validation and confuse the
// journal-replay dispatch in runJob.
type jobSubmit struct {
	Jobs  []FillRequest `json:"jobs,omitempty"`
	Debug bool          `json:"debug,omitempty"`
	// Pipeline submits one full netlist→ATPG→fill→power run instead
	// of a batch of fill jobs.
	Pipeline *pipeline.Request `json:"pipeline,omitempty"`
}

// decodeJobSubmit validates a POST /v1/jobs body and returns the
// canonical payload the job journal stores: the BatchRequest itself
// for batch submits, or a {"pipeline": ...} envelope for pipeline
// submits (how runJob tells the two apart at execution and replay).
// Per-job resolution errors are not checked here: they surface in the
// job's result, exactly as the synchronous endpoints report them.
func (f *Front) decodeJobSubmit(w http.ResponseWriter, r *http.Request) (json.RawMessage, int, bool) {
	var req jobSubmit
	if !DecodeJSON(w, r, f.cfg.MaxBodyBytes, &req) {
		return nil, 0, false
	}
	var payload any
	var total int
	var err error
	switch {
	case req.Pipeline != nil && len(req.Jobs) > 0:
		err = badRequestf("submit carries both jobs and a pipeline; pick one")
	case req.Pipeline != nil:
		payload, total, err = pipelineEnvelope{Pipeline: req.Pipeline}, req.Pipeline.Steps(), req.Pipeline.Validate()
	default:
		batch := BatchRequest{Jobs: req.Jobs, Debug: req.Debug}
		payload, total, err = batch, len(batch.Jobs), f.validateBatch(batch)
	}
	var body []byte
	if err == nil {
		body, err = json.Marshal(payload)
	}
	if err != nil {
		writeError(w, err)
		return nil, 0, false
	}
	return body, total, true
}

// runJob is the async job runner: it dispatches on the journaled
// payload's envelope — a pipeline request runs the backend's pipeline
// path, a batch payload its batch path — so one WAL carries both job
// types and pre-envelope journals (plain batch payloads) replay
// unchanged. A pipeline failure fails the whole job (there are no
// per-item slots to isolate it into, unlike a batch).
func (f *Front) runJob(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	if preq, ok, err := pipelinePayload(payload); ok {
		if err != nil {
			return nil, err
		}
		rep, err := f.backend.Pipeline(ctx, preq)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	return jobs.RunJSON(f.backend.Batch)(ctx, payload)
}

// pipelineEnvelope is the journaled payload of an async pipeline job.
// Batch payloads ({"jobs": ...}) decode into it with a nil Pipeline,
// which is how runJob tells the two job types apart without a journal
// format version.
type pipelineEnvelope struct {
	Pipeline *pipeline.Request `json:"pipeline"`
}

// pipelinePayload probes a journaled payload for the pipeline
// envelope. A pipeline payload then decodes strictly: one carrying a
// field this build does not know reports ok with an error naming it.
func pipelinePayload(payload json.RawMessage) (pipeline.Request, bool, error) {
	var env pipelineEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Pipeline == nil {
		return pipeline.Request{}, false, nil
	}
	if err := jobs.DecodeStrict(payload, &env); err != nil {
		return pipeline.Request{}, true, fmt.Errorf("decoding journaled pipeline payload: %w", err)
	}
	return *env.Pipeline, true, nil
}

// StatusError is an error that names the HTTP status it answers with.
// A coordinator classifies fleet failures with it where they happen —
// 503 for an empty fleet, 502 for a transport failure or a worker
// answer it cannot use — so the error table needs no per-tier default.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }

func (e *StatusError) Unwrap() error { return e.Err }

// writeError answers err through the one error→status table both tiers
// share: another service's error answer (a worker's, met by a
// coordinator) passes through verbatim; validation failures are 400; a
// StatusError names its own status; deadline overruns are 504, client
// disconnects 499 (nginx's convention), and anything else 422 — the job
// itself failed.
func writeError(w http.ResponseWriter, err error) {
	status, msg := http.StatusUnprocessableEntity, err.Error()
	var reply interface{ Reply() (int, string) }
	var bad badRequestError
	var se *StatusError
	switch {
	case errors.As(err, &reply):
		status, msg = reply.Reply()
	case errors.As(err, &bad), errors.Is(err, pipeline.ErrBadRequest):
		status = http.StatusBadRequest
	case errors.As(err, &se):
		status = se.Status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	}
	writeJSON(w, status, errorResponse{Error: msg})
}
