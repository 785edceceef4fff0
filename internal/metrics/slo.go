package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// sloDefaultWindow bounds the burn-rate ring when the caller passes 0.
const sloDefaultWindow = 1024

// SLO tracks request latencies against one threshold and exposes the
// error-budget view: totals, breaches, and a burn rate computed over a
// sliding window of recent requests (so the gauge recovers once a slow
// spell ends instead of averaging over process lifetime). Observe is
// two atomic adds plus one short mutex hold on the window ring; both
// serving tiers call it once per request.
type SLO struct {
	threshold time.Duration
	total     atomic.Uint64
	breaches  atomic.Uint64

	mu    sync.Mutex
	ring  []bool
	next  int
	count int
}

// NewSLO builds an SLO with the given breach threshold over a sliding
// window of `window` requests (0 picks a default of 1024).
func NewSLO(threshold time.Duration, window int) *SLO {
	if window <= 0 {
		window = sloDefaultWindow
	}
	return &SLO{threshold: threshold, ring: make([]bool, window)}
}

// Observe records one request's latency and reports whether it
// breached the threshold.
func (s *SLO) Observe(d time.Duration) bool {
	breach := d > s.threshold
	s.total.Add(1)
	if breach {
		s.breaches.Add(1)
	}
	s.mu.Lock()
	s.ring[s.next] = breach
	s.next = (s.next + 1) % len(s.ring)
	if s.count < len(s.ring) {
		s.count++
	}
	s.mu.Unlock()
	return breach
}

// BurnRate returns the fraction of requests in the sliding window that
// breached the threshold; 0 before any request.
func (s *SLO) BurnRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	breached := 0
	for i := 0; i < s.count; i++ {
		if s.ring[i] {
			breached++
		}
	}
	return float64(breached) / float64(s.count)
}

// Threshold returns the configured breach threshold.
func (s *SLO) Threshold() time.Duration { return s.threshold }

// Register mounts the SLO's four families on r, each series labelled
// tier=<tier>: dpfill_slo_requests_total, dpfill_slo_breaches_total,
// dpfill_slo_burn_rate and dpfill_slo_threshold_seconds.
func (s *SLO) Register(r *Registry, tier string) {
	l := Label{Name: "tier", Value: tier}
	r.CounterFunc("dpfill_slo_requests_total",
		"Requests measured against the latency SLO.",
		s.total.Load, l)
	r.CounterFunc("dpfill_slo_breaches_total",
		"Requests that exceeded the SLO threshold.",
		s.breaches.Load, l)
	r.GaugeFunc("dpfill_slo_burn_rate",
		"Fraction of recent requests over the SLO threshold.",
		s.BurnRate, l)
	r.GaugeFunc("dpfill_slo_threshold_seconds",
		"Configured SLO latency threshold.",
		func() float64 { return s.threshold.Seconds() }, l)
}
