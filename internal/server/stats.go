package server

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	prom "repro/internal/metrics"
	"repro/internal/pipeline"
)

// latencyWindow bounds the per-job latency reservoir: percentiles are
// computed over the most recent window, so a long-running daemon's
// /stats reflects current behaviour, not its whole history.
const latencyWindow = 4096

// Stats is the /stats response payload.
type Stats struct {
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_s"`
	// JobsServed counts fill jobs answered, cache hits included.
	JobsServed uint64 `json:"jobs_served"`
	// Errors counts jobs that ended in an error response.
	Errors uint64 `json:"errors"`
	// CacheHits/CacheMisses count digest lookups; CacheHitRate is
	// hits/(hits+misses), 0 when nothing has been looked up.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheEntries is the current LRU entry count.
	CacheEntries int `json:"cache_entries"`
	// QueueDepth and InFlight are the engine's live occupancy: jobs
	// accepted but waiting for a worker slot, and jobs executing right
	// now. EngineWorkers is the machine-wide worker bound they are
	// measured against. A cluster coordinator ranks workers by these.
	QueueDepth    int `json:"queue_depth"`
	InFlight      int `json:"inflight"`
	EngineWorkers int `json:"engine_workers"`
	// Pipelines counts /v1/pipeline runs answered (sync and async);
	// PipelineErrors counts the ones that ended in an error.
	Pipelines      uint64 `json:"pipelines"`
	PipelineErrors uint64 `json:"pipeline_errors"`
	// P50Millis/P99Millis are per-job latency percentiles over the
	// most recent LatencySamples jobs.
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	// LatencySamples is how many samples the percentiles cover.
	LatencySamples int `json:"latency_samples"`
	// SlowRequests is the bounded ring of captured SLO breaches, newest
	// first: each entry carries the request's trace IDs plus the explain
	// evidence recorded while it ran. Absent when slow capture is
	// disabled or nothing has breached yet.
	SlowRequests []SlowRequest `json:"slow_requests,omitempty"`
}

// metrics accumulates serving statistics. The counters are atomics the
// registry reads at scrape time; the latency window sits behind mu.
// fillLatency additionally mirrors each job's latency into the
// Prometheus histogram (atomic-only, set once at construction).
type metrics struct {
	start time.Time // immutable after newMetrics

	jobs, errors, cacheHits, cacheMisses atomic.Uint64
	pipelines, pipelineErrors            atomic.Uint64

	mu sync.Mutex
	// dpvet:guardedby mu
	lat [latencyWindow]time.Duration
	// dpvet:guardedby mu
	latNext int
	// dpvet:guardedby mu
	latCount    int
	fillLatency *prom.Histogram

	pipelineLatency *prom.Histogram
	// stageLatency maps a pipeline stage's base name (shard stages
	// "atpg/K" fold into "atpg") to its Prometheus histogram; set once
	// at construction by newProm, read-only afterwards.
	stageLatency map[string]*prom.Histogram
	// fillStage maps a served fill-core trace stage (see fillStages) to
	// its Prometheus histogram; set once at construction by newProm,
	// read-only afterwards.
	fillStage map[string]*prom.Histogram
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// observeJob records one answered job that went through a cache
// lookup, and its wall-clock latency.
func (m *metrics) observeJob(d time.Duration, cached bool) {
	if cached {
		m.cacheHits.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
	m.jobs.Add(1)
	m.mu.Lock()
	m.lat[m.latNext] = d
	m.latNext = (m.latNext + 1) % latencyWindow
	if m.latCount < latencyWindow {
		m.latCount++
	}
	m.mu.Unlock()
	if m.fillLatency != nil {
		m.fillLatency.Observe(d)
	}
}

// observePipeline records one answered pipeline run: its end-to-end
// wall-clock latency plus the per-stage timings the report carries,
// fanned into the stage-labelled histogram family.
func (m *metrics) observePipeline(d time.Duration, stages []pipeline.StageTiming) {
	m.pipelines.Add(1)
	if m.pipelineLatency != nil {
		m.pipelineLatency.Observe(d)
	}
	for _, st := range stages {
		base, _, _ := strings.Cut(st.Stage, "/")
		if h := m.stageLatency[base]; h != nil {
			h.Observe(time.Duration(st.DurationMillis * 1e6))
		}
	}
}

// observeFillTrace fans a completed DP fill's stage breakdown into the
// stage-labelled histogram family. Traces are per-job and sealed by
// the time the engine returns, so no lock is needed beyond the
// histograms' own atomics.
func (m *metrics) observeFillTrace(tr *core.Trace) {
	if tr == nil || m.fillStage == nil {
		return
	}
	for _, st := range tr.StageNS() {
		if h := m.fillStage[st.Stage]; h != nil {
			h.Observe(time.Duration(st.NS))
		}
	}
}

// observePipelineError records one pipeline run that ended in an
// error response.
func (m *metrics) observePipelineError() { m.pipelineErrors.Add(1) }

// observeError records one job that ended in an error response.
func (m *metrics) observeError() { m.errors.Add(1) }

// snapshot renders the current statistics. cacheEntries and the
// engine occupancy are passed in so metrics stays decoupled from the
// cache and engine implementations.
func (m *metrics) snapshot(cacheEntries, queued, inflight, workers int) Stats {
	st := Stats{
		UptimeSeconds:  time.Since(m.start).Seconds(),
		JobsServed:     m.jobs.Load(),
		Errors:         m.errors.Load(),
		CacheHits:      m.cacheHits.Load(),
		CacheMisses:    m.cacheMisses.Load(),
		CacheEntries:   cacheEntries,
		QueueDepth:     queued,
		InFlight:       inflight,
		EngineWorkers:  workers,
		Pipelines:      m.pipelines.Load(),
		PipelineErrors: m.pipelineErrors.Load(),
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st.LatencySamples = m.latCount
	if m.latCount > 0 {
		window := make([]time.Duration, m.latCount)
		copy(window, m.lat[:m.latCount])
		sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
		st.P50Millis = quantileMillis(window, 0.50)
		st.P99Millis = quantileMillis(window, 0.99)
	}
	return st
}

// quantileMillis returns the nearest-rank q-quantile of the sorted
// sample in milliseconds: index ceil(q*n)-1, so p99 over a window
// with a single slow outlier actually surfaces it. The conversion
// starts from nanoseconds in float64 — integer-dividing to a coarser
// unit first would floor every sample (sub-microsecond fills would
// all report 0) and systematically under-report the rest.
func quantileMillis(sorted []time.Duration, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}
