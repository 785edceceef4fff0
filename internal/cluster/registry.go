package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/client"
)

// RegistryConfig tunes worker health-checking. The zero value gets
// production-safe defaults.
type RegistryConfig struct {
	// HeartbeatInterval is the period between health sweeps (default
	// 2s). Every sweep polls each worker's /stats once.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one worker's poll (default 1s).
	HeartbeatTimeout time.Duration
	// FailThreshold is how many consecutive failed heartbeats eject a
	// worker (default 2). One successful heartbeat readmits it.
	FailThreshold int
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	return c
}

// worker is one registered dpfilld instance and the registry's view
// of it. All mutable state sits behind mu.
type worker struct {
	url string
	c   *client.Client

	mu sync.Mutex
	// dpvet:guardedby mu
	healthy bool
	// gen is the worker's ejection generation: markDown bumps it, and a
	// heartbeat sweep only applies its result if the generation it read
	// at poll time still holds. Without it a sweep that polled the
	// worker just before a mid-dispatch transport failure ejected it
	// would land afterwards and readmit the zombie with stale health.
	// dpvet:guardedby mu
	gen uint64
	// dpvet:guardedby mu
	fails int // consecutive failed heartbeats
	// dpvet:guardedby mu
	stats client.Stats // last successful /stats poll
	// dpvet:guardedby mu
	polled time.Time // when stats was taken
	// outstanding counts jobs this coordinator has dispatched to the
	// worker and not yet seen answered. It is the live component of
	// the load score: /stats polls lag by up to a heartbeat interval,
	// but outstanding moves the instant a shard is dispatched.
	// dpvet:guardedby mu
	outstanding int
}

// load ranks the worker for least-loaded dispatch: the worker's own
// reported backlog plus what this coordinator already has in flight
// to it.
func (w *worker) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats.QueueDepth + w.stats.InFlight + w.outstanding
}

func (w *worker) addOutstanding(n int) {
	w.mu.Lock()
	w.outstanding += n
	w.mu.Unlock()
}

// markDown ejects the worker immediately — called when a dispatch
// fails at the transport level, so the registry reacts at once
// instead of waiting out FailThreshold heartbeats.
func (w *worker) markDown() {
	w.mu.Lock()
	w.healthy = false
	w.gen++
	w.mu.Unlock()
}

// beginSweep returns the ejection generation a heartbeat sweep must
// present back to applySweep.
func (w *worker) beginSweep() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// applySweep folds one heartbeat result into the worker's health
// state — unless the worker was marked down after the sweep began
// (generation mismatch), in which case the result describes a worker
// that has since died and is discarded. The next sweep, which starts
// at the new generation, readmits the worker if it truly recovered.
func (w *worker) applySweep(gen uint64, st *client.Stats, err error, failThreshold int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if gen != w.gen {
		return
	}
	if err != nil {
		w.fails++
		if w.fails >= failThreshold {
			w.healthy = false
		}
		return
	}
	w.fails = 0
	w.healthy = true
	w.stats = *st
	w.polled = time.Now()
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// WorkerStatus is one worker's row in the coordinator's /stats.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFails counts failed heartbeats since the last success.
	ConsecutiveFails int `json:"consecutive_fails"`
	// QueueDepth and InFlight are the worker's last-polled engine
	// occupancy; Outstanding is this coordinator's own in-flight job
	// count against it.
	QueueDepth  int `json:"queue_depth"`
	InFlight    int `json:"inflight"`
	Outstanding int `json:"outstanding"`
	// LastSeenSeconds is the age of the last successful poll; negative
	// when the worker has never answered.
	LastSeenSeconds float64 `json:"last_seen_s"`
}

// registry tracks the worker fleet and its health. Workers start
// unhealthy and are admitted by their first successful heartbeat, so
// dispatch never races ahead of the first health sweep.
type registry struct {
	cfg     RegistryConfig
	workers []*worker
	// onHeartbeat, when set before run, observes every worker poll's
	// round-trip time and outcome — the /metrics heartbeat histogram.
	onHeartbeat func(rtt time.Duration, ok bool)
}

// newRegistry builds a registry over the given worker base URLs.
func newRegistry(cfg RegistryConfig, urls []string, mkClient func(string) (*client.Client, error)) (*registry, error) {
	cfg = cfg.withDefaults()
	r := &registry{cfg: cfg}
	for _, u := range urls {
		c, err := mkClient(u)
		if err != nil {
			return nil, err
		}
		r.workers = append(r.workers, &worker{url: c.BaseURL(), c: c})
	}
	return r, nil
}

// run sweeps heartbeats until ctx is cancelled, starting with an
// immediate sweep so a fresh coordinator admits its fleet without
// waiting a full interval. afterFirst, when non-nil, fires once the
// initial sweep completes — the hook that releases work gated on the
// fleet being admitted.
func (r *registry) run(ctx context.Context, afterFirst func()) {
	r.sweep(ctx)
	if afterFirst != nil {
		afterFirst()
	}
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.sweep(ctx)
		}
	}
}

// sweep polls every worker concurrently with one /stats request: an
// answer admits the worker and refreshes the load view used for
// dispatch, a failure counts toward ejection.
func (r *registry) sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			gen := w.beginSweep()
			hctx, cancel := context.WithTimeout(ctx, r.cfg.HeartbeatTimeout)
			defer cancel()
			start := time.Now()
			st, err := w.c.Stats(hctx)
			if r.onHeartbeat != nil {
				r.onHeartbeat(time.Since(start), err == nil)
			}
			w.applySweep(gen, st, err, r.cfg.FailThreshold)
		}(w)
	}
	wg.Wait()
}

// pick returns the least-loaded healthy worker not in exclude, or nil
// when none qualifies.
func (r *registry) pick(exclude map[*worker]bool) *worker {
	var best *worker
	bestLoad := 0
	for _, w := range r.workers {
		if exclude[w] || !w.isHealthy() {
			continue
		}
		if l := w.load(); best == nil || l < bestLoad {
			best, bestLoad = w, l
		}
	}
	return best
}

// affinityTarget returns the worker that rendezvous-hashes highest
// for key among the WHOLE fleet, healthy or not — hashing over all
// workers keeps the mapping stable while a worker bounces, so its
// result cache is warm again the moment it is readmitted. The caller
// checks health/exclusion itself and falls back to least-loaded when
// the target is unavailable. Returns nil only for an empty fleet or a
// zero key (no affinity requested).
func (r *registry) affinityTarget(key uint64) *worker {
	if key == 0 {
		return nil
	}
	var best *worker
	var bestScore uint64
	for _, w := range r.workers {
		// Highest-random-weight score: hash(worker, key) via FNV-1a
		// folding the shard key into the worker URL's hash.
		h := fnv1a64(w.url)
		h ^= key
		h *= 1099511628211 // FNV prime, one more mixing round
		if best == nil || h > bestScore {
			best, bestScore = w, h
		}
	}
	return best
}

// fnv1a64 is the 64-bit FNV-1a hash of s.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// healthyCount returns how many workers are currently admitted.
func (r *registry) healthyCount() int {
	n := 0
	for _, w := range r.workers {
		if w.isHealthy() {
			n++
		}
	}
	return n
}

// snapshot renders the per-worker status rows for /stats.
func (r *registry) snapshot() []WorkerStatus {
	out := make([]WorkerStatus, len(r.workers))
	now := time.Now()
	for i, w := range r.workers {
		w.mu.Lock()
		s := WorkerStatus{
			URL:              w.url,
			Healthy:          w.healthy,
			ConsecutiveFails: w.fails,
			QueueDepth:       w.stats.QueueDepth,
			InFlight:         w.stats.InFlight,
			Outstanding:      w.outstanding,
			LastSeenSeconds:  -1,
		}
		if !w.polled.IsZero() {
			s.LastSeenSeconds = now.Sub(w.polled).Seconds()
		}
		w.mu.Unlock()
		out[i] = s
	}
	return out
}
