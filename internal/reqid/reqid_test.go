package reqid

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func TestNewMintsHexIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := New()
		if len(id) != 16 {
			t.Fatalf("id %q is not 16 hex chars", id)
		}
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
			t.Fatalf("id %q is not lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("id %q minted twice", id)
		}
		seen[id] = true
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != "" || TraceFrom(ctx) != (Trace{}) {
		t.Fatal("empty context carries a trace")
	}
	ctx = With(ctx, "rid-1")
	if From(ctx) != "rid-1" {
		t.Fatalf("From = %q", From(ctx))
	}
	tr := Trace{ID: "rid-2", Span: "sp", Parent: "pp"}
	ctx = WithTrace(ctx, tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %+v, want %+v", got, tr)
	}
}

// TestMiddlewareMintsEchoesAndPropagates pins the hop contract: the
// incoming trace ID is echoed (or minted), the parent span header is
// recorded, and the handler sees the full trace on its context.
func TestMiddlewareMintsEchoesAndPropagates(t *testing.T) {
	var seen Trace
	h := Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceFrom(r.Context())
	}))

	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(Header, "rid-echo")
	req.Header.Set(ParentHeader, "parent-span")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Header().Get(Header) != "rid-echo" {
		t.Fatalf("trace ID not echoed: %q", rr.Header().Get(Header))
	}
	if seen.ID != "rid-echo" || seen.Parent != "parent-span" || len(seen.Span) != 16 {
		t.Fatalf("handler saw trace %+v", seen)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/x", nil))
	if minted := rr.Header().Get(Header); len(minted) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", minted)
	}
}

// TestMiddlewareAccessLog pins the access-log record shape the fleet's
// tooling greps: method, path, status, rid=, span= and parent= (with
// "-" at the edge).
func TestMiddlewareAccessLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Middleware(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))

	req := httptest.NewRequest(http.MethodPost, "/v1/fill", nil)
	req.Header.Set(Header, "rid-log-7")
	h.ServeHTTP(httptest.NewRecorder(), req)
	line := buf.String()
	for _, want := range []string{"method=POST", "path=/v1/fill", "status=418", "rid=rid-log-7", "parent=-", "dur_ms="} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log %q missing %q", line, want)
		}
	}
	if m := regexp.MustCompile(`span=([0-9a-f]{16})`).FindStringSubmatch(line); m == nil {
		t.Fatalf("access log %q has no hop span", line)
	}

	// A non-edge hop logs its caller's span as parent.
	buf.Reset()
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	req.Header.Set(Header, "rid-log-8")
	req.Header.Set(ParentHeader, "caller-span")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !strings.Contains(buf.String(), "parent=caller-span") {
		t.Fatalf("access log %q lost the caller's span", buf.String())
	}
}

// TestStatusWriterRecordsStatus: the access-log wrapper records the
// status it forwards to the underlying writer.
func TestStatusWriterRecordsStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	sw.WriteHeader(http.StatusAccepted)
	if sw.status != http.StatusAccepted || rec.Code != http.StatusAccepted {
		t.Fatalf("status not recorded: %d/%d", sw.status, rec.Code)
	}
}
