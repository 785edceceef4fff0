// Package reqid carries request tracing across the fill fleet. Every
// request owns a trace: a trace ID minted at the edge (coordinator or
// worker, whichever is hit first) plus one span ID per hop. The
// coordinator's hop and each worker's hop of the same request share
// the trace ID and parent/child span IDs, so one grep over the fleet's
// access logs reconstructs the request's full path and timing.
//
// Wire format: the trace ID travels in X-Request-ID (kept from the
// pre-tracing fleet, so old and new nodes interoperate) and the
// calling hop's span ID in X-Parent-Span. Middleware mints this hop's
// own span ID; internal/client forwards both headers on every
// outbound hop.
package reqid

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// Header is the HTTP header the fleet propagates trace IDs in.
const Header = "X-Request-ID"

// ParentHeader carries the calling hop's span ID, so the receiving
// hop can record its parent.
const ParentHeader = "X-Parent-Span"

// New returns a fresh 16-hex-character identifier, used for both
// trace and span IDs.
func New() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID
		// still correlates within one request if it somehow does.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Trace is one hop's view of a request's trace context.
type Trace struct {
	// ID is the trace ID, constant across every hop of one request.
	ID string
	// Span is this hop's own span ID.
	Span string
	// Parent is the calling hop's span ID; empty at the edge.
	Parent string
}

type ctxKey struct{}

// With returns a context carrying a trace with the given trace ID and
// no span — the pre-tracing entry point, kept for callers that only
// correlate by request ID.
func With(ctx context.Context, id string) context.Context {
	return WithTrace(ctx, Trace{ID: id})
}

// WithTrace returns a context carrying the full trace context.
func WithTrace(ctx context.Context, tr Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// From returns the context's trace ID, or "" when none was set.
func From(ctx context.Context) string {
	return TraceFrom(ctx).ID
}

// TraceFrom returns the context's trace context; the zero Trace when
// none was set.
func TraceFrom(ctx context.Context) Trace {
	tr, _ := ctx.Value(ctxKey{}).(Trace)
	return tr
}

// Middleware wraps an HTTP handler with the fleet's tracing contract:
// an incoming Header value is the trace ID (echoed on the response,
// minted when absent), an incoming ParentHeader value is recorded as
// this hop's parent span, and a fresh span ID is minted for the hop
// itself. The full trace rides the request context for downstream
// hops, and — when logger is non-nil and takes info records — every
// request writes one structured access-log record: method, path,
// status, duration, trace ID, span ID and parent span. Both the worker
// and the coordinator serve through this, so their log lines join on
// rid= and nest by span=/parent=.
func Middleware(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := Trace{
			ID:     r.Header.Get(Header),
			Span:   New(),
			Parent: r.Header.Get(ParentHeader),
		}
		if tr.ID == "" {
			tr.ID = New()
		}
		w.Header().Set(Header, tr.ID)
		r = r.WithContext(WithTrace(r.Context(), tr))
		if logger == nil || !logger.Enabled(r.Context(), slog.LevelInfo) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		parent := tr.Parent
		if parent == "" {
			parent = "-"
		}
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"rid", tr.ID,
			"span", tr.Span,
			"parent", parent)
	})
}

// statusWriter records the status code written through it, for access
// logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
