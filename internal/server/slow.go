package server

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	prom "repro/internal/metrics"
	"repro/internal/reqid"
)

// slowRingSize bounds the slow-request ring on both tiers: enough to
// hold a burst of breaches for postmortem inspection, small enough
// that /stats stays cheap.
const slowRingSize = 32

// SlowRequest is one captured SLO breach: the request's identity and
// trace context plus whatever explain evidence the handler attached —
// the fill-core stage breakdown on a worker, the per-shard dispatch
// traces on a coordinator. It is the record an operator reads to
// answer "why was this one slow" after the fact, without having had
// debug logging enabled at the time.
type SlowRequest struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	// Start is when the request began; DurationMillis its total time.
	Start          time.Time `json:"start"`
	DurationMillis float64   `json:"duration_ms"`
	// Rid and Span join the capture to the fleet's access logs.
	Rid  string `json:"rid,omitempty"`
	Span string `json:"span,omitempty"`
	// Explain is the fill-core stage trace of the slowest traced fill
	// in the request, when one ran.
	Explain *core.Trace `json:"explain,omitempty"`
	// Shards is the coordinator's dispatch breakdown, when the request
	// was sharded across a fleet.
	Shards []ShardTrace `json:"shards,omitempty"`
}

// SlowRing is a bounded ring of captured slow requests, newest first
// in snapshots. The zero value is not usable; a nil *SlowRing is a
// safe no-op everywhere, so disabling capture costs one nil check.
type SlowRing struct {
	mu sync.Mutex
	// dpvet:guardedby mu
	buf []SlowRequest
	// dpvet:guardedby mu
	next int
	// dpvet:guardedby mu
	count int
}

// NewSlowRing builds a ring holding the most recent n captures.
func NewSlowRing(n int) *SlowRing {
	if n <= 0 {
		n = slowRingSize
	}
	return &SlowRing{buf: make([]SlowRequest, n)}
}

// Add records one capture, evicting the oldest when full.
func (r *SlowRing) Add(sr SlowRequest) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = sr
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// Snapshot returns the captured requests, newest first; nil when the
// ring is nil or empty.
func (r *SlowRing) Snapshot() []SlowRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return nil
	}
	out := make([]SlowRequest, 0, r.count)
	for i := 1; i <= r.count; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// slowNote is the per-request annotation slot handlers write explain
// evidence into; the capture wrapper reads it after the response.
type slowNote struct {
	mu      sync.Mutex
	explain *core.Trace
	shards  []ShardTrace
}

type slowNoteKey struct{}

// AnnotateExplain attaches a fill's explain trace to the in-flight
// request's capture slot. When several fills run in one request (a
// batch), the one with the largest TotalNS wins — the slowest fill is
// the one an operator wants to see. A context without a slot (capture
// disabled, or not under CaptureSlow) is a no-op.
func AnnotateExplain(ctx context.Context, tr *core.Trace) {
	note, _ := ctx.Value(slowNoteKey{}).(*slowNote)
	if note == nil || tr == nil {
		return
	}
	note.mu.Lock()
	if note.explain == nil || tr.TotalNS > note.explain.TotalNS {
		note.explain = tr
	}
	note.mu.Unlock()
}

// AnnotateShards attaches a coordinator's per-shard dispatch traces to
// the in-flight request's capture slot.
func AnnotateShards(ctx context.Context, traces []ShardTrace) {
	note, _ := ctx.Value(slowNoteKey{}).(*slowNote)
	if note == nil || len(traces) == 0 {
		return
	}
	note.mu.Lock()
	note.shards = traces
	note.mu.Unlock()
}

// CaptureSlow wraps next with the SLO measurement layer: every /v1/*
// request is observed against the SLO, and breaches are snapshotted —
// trace IDs, status, duration and any explain evidence the handlers
// annotated — into the ring. With a nil ring (capture disabled) next
// is returned unwrapped. Mounted inside reqid.Middleware so the trace
// context is already on the request.
func CaptureSlow(ring *SlowRing, slo *prom.SLO, next http.Handler) http.Handler {
	if ring == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		note := &slowNote{}
		ctx := context.WithValue(r.Context(), slowNoteKey{}, note)
		sw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		if slo == nil || !slo.Observe(elapsed) {
			return
		}
		tr := reqid.TraceFrom(r.Context())
		note.mu.Lock()
		explain, shards := note.explain, note.shards
		note.mu.Unlock()
		ring.Add(SlowRequest{
			Method:         r.Method,
			Path:           r.URL.Path,
			Status:         sw.status,
			Start:          start,
			DurationMillis: float64(elapsed.Nanoseconds()) / 1e6,
			Rid:            tr.ID,
			Span:           tr.Span,
			Explain:        explain,
			Shards:         shards,
		})
	})
}

// captureWriter records the response status for the slow snapshot.
type captureWriter struct {
	http.ResponseWriter
	status int
}

func (w *captureWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
