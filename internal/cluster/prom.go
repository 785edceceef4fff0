package cluster

import (
	"time"

	prom "repro/internal/metrics"
)

// newProm builds the coordinator's Prometheus registry. Dispatch
// counters read at scrape time from the atomics the coordinator
// already keeps for /stats; the two eagerly-fed series — shard latency
// and heartbeat round-trip histograms — observe with atomics only, so
// the dispatch hot path gains no locks.
func (co *Coordinator) newProm() *prom.Registry {
	r := prom.NewRegistry()
	m := co.met
	r.CounterFunc("dpfill_coord_jobs_total",
		"Jobs accepted for dispatch: batch items, single fills, pipeline runs.", m.jobs.Load)
	r.CounterFunc("dpfill_coord_shards_total",
		"Worker shards batches were split into.", m.shards.Load)
	r.CounterFunc("dpfill_coord_shard_retries_total",
		"Failover re-dispatches to another worker.", m.retries.Load)
	r.CounterFunc("dpfill_coord_shard_failures_total",
		"Shards whose every attempt failed.", m.shardFailures.Load)
	r.CounterFunc("dpfill_coord_hedges_total",
		"Duplicate straggler attempts launched.", m.hedges.Load)
	r.CounterFunc("dpfill_coord_hedge_wins_total",
		"Dispatches the hedge attempt answered first.", m.hedgeWins.Load)
	r.CounterFunc("dpfill_coord_fallbacks_total",
		"Dispatches answered by the local in-process engine.", m.fallbacks.Load)
	r.CounterFunc("dpfill_coord_affinity_hits_total",
		"First attempts routed to the request's rendezvous-hash target.", m.affinityHits.Load)
	r.CounterFunc("dpfill_coord_affinity_misses_total",
		"Dispatches whose hash target was unavailable or overloaded.", m.affinityMisses.Load)
	r.GaugeFunc("dpfill_coord_workers_total",
		"Configured fleet size.",
		func() float64 { return float64(len(co.reg.workers)) })
	r.GaugeFunc("dpfill_coord_workers_healthy",
		"Workers currently admitted by heartbeat.",
		func() float64 { return float64(co.reg.healthyCount()) })
	for _, w := range co.reg.workers {
		w := w
		r.GaugeFunc("dpfill_coord_worker_outstanding",
			"Jobs this coordinator has in flight against the worker.",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				return float64(w.outstanding)
			}, prom.Label{Name: "worker", Value: w.url})
	}
	co.shardLatency = r.Histogram("dpfill_coord_shard_latency_seconds",
		"Per-shard wall-clock dispatch time, failover and fallback included.",
		prom.DefBuckets)
	hb := r.Histogram("dpfill_coord_heartbeat_rtt_seconds",
		"Per-worker heartbeat time: one /stats round trip.", prom.RTTBuckets)
	co.reg.onHeartbeat = func(rtt time.Duration, _ bool) { hb.Observe(rtt) }
	co.RegisterProm(r, "coord")
	return r
}
