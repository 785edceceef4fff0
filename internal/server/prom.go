package server

import (
	"repro/internal/core"
	prom "repro/internal/metrics"
)

// fillStages is the stage set of a served fill-core explain trace, in
// trace order (see core.Trace.StageNS). "unpack" is left out: a served
// fill stays in packed planes, so that stage always reads zero.
var fillStages = []string{"pack", "scan", "bound", "assign", "reconstruct", "other"}

// newProm builds the worker's Prometheus registry. Counters and gauges
// read at scrape time from the state the service already maintains —
// the /stats atomics, the engine's occupancy, the job journal — so
// serving hot paths gain no new synchronization; the eagerly-fed
// series are histograms, whose Observe is atomic-only.
func (s *Server) newProm() *prom.Registry {
	r := prom.NewRegistry()
	m := s.met
	r.CounterFunc("dpfill_jobs_total",
		"Fill jobs answered, cache hits included.", m.jobs.Load)
	r.CounterFunc("dpfill_errors_total",
		"Jobs that ended in an error response.", m.errors.Load)
	r.CounterFunc("dpfill_cache_hits_total",
		"Result-cache lookups answered from the LRU.", m.cacheHits.Load)
	r.CounterFunc("dpfill_cache_misses_total",
		"Result-cache lookups that ran the engine.", m.cacheMisses.Load)
	r.GaugeFunc("dpfill_cache_entries",
		"Current result-cache LRU entry count.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("dpfill_queue_depth",
		"Engine jobs accepted but waiting for a worker slot.",
		func() float64 { q, _ := s.eng.Load(); return float64(q) })
	r.GaugeFunc("dpfill_inflight",
		"Engine jobs executing right now.",
		func() float64 { _, f := s.eng.Load(); return float64(f) })
	r.GaugeFunc("dpfill_engine_workers",
		"Machine-wide engine worker bound.",
		func() float64 { return float64(s.eng.Workers) })
	m.fillLatency = r.Histogram("dpfill_fill_latency_seconds",
		"Per-job wall-clock latency, cache hits included.", prom.DefBuckets)
	r.CounterFunc("dpfill_pipeline_runs_total",
		"Pipeline runs answered, sync and async.", m.pipelines.Load)
	r.CounterFunc("dpfill_pipeline_errors_total",
		"Pipeline runs that ended in an error response.", m.pipelineErrors.Load)
	m.pipelineLatency = r.Histogram("dpfill_pipeline_latency_seconds",
		"End-to-end pipeline wall-clock latency.", prom.DefBuckets)
	// One labelled series per pipeline stage; ATPG shard timings
	// ("atpg/K") fold into the atpg series.
	m.stageLatency = make(map[string]*prom.Histogram)
	for _, stage := range []string{"netlist", "atpg", "curve", "fill", "power"} {
		m.stageLatency[stage] = r.Histogram("dpfill_pipeline_stage_seconds",
			"Per-stage pipeline latency.", prom.DefBuckets,
			prom.Label{Name: "stage", Value: stage})
	}
	// One labelled series per fill-core trace stage: every DP fill is
	// traced server-side, so these aggregate the explain breakdown
	// whether or not any request asked for debug output.
	m.fillStage = make(map[string]*prom.Histogram)
	for _, stage := range fillStages {
		m.fillStage[stage] = r.Histogram("dpfill_fill_stage_seconds",
			"Per-stage fill-core wall time.", prom.DefBuckets,
			prom.Label{Name: "stage", Value: stage})
	}
	r.CounterFunc("dpfill_go_arena_hits_total",
		"Fill-core arena pool gets answered by a warm arena.",
		func() uint64 { hits, _ := core.PoolStats(); return hits })
	r.CounterFunc("dpfill_go_arena_misses_total",
		"Fill-core arena pool gets that allocated a fresh arena.",
		func() uint64 { _, misses := core.PoolStats(); return misses })
	// The front's job-queue families read the queue lazily: the
	// registry is built before OpenJobs so journal replay can't race
	// histogram wiring, and no scrape can arrive before New returns.
	s.RegisterProm(r, "worker")
	return r
}
