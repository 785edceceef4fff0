package cluster

import (
	"sync"
	"sync/atomic"
	"time"

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
	// outcome — each batch job, each single fill, each pipeline run —
	// over fleet and fallback alike. ShardsDispatched counts the worker
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
		SlowRequests:     co.SlowRequests(),
	}
}
