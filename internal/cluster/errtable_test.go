package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// errTiers stands up every handler the error table walks: a worker and
// a coordinator over it with the same small limits; a worker whose
// every job overruns its 1ns default deadline and a coordinator over
// it; a coordinator over a fake worker that passes heartbeats but
// answers /v1/fill with its own error and drops /v1/pipeline
// connections; and two coordinators with no fleet, one without a
// fallback and one with its local fallback on.
func errTiers(t *testing.T) map[string]http.Handler {
	t.Helper()
	worker := func(timeout time.Duration) (*server.Server, string) {
		cfg := server.Config{Workers: 1, DefaultTimeout: timeout}
		cfg.MaxBodyBytes = 4096
		cfg.MaxBatchJobs = 2
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts.URL
	}
	coord := func(urls ...string) *Coordinator {
		cfg := Config{Workers: urls, DisableFallback: true}
		cfg.MaxBodyBytes = 4096
		cfg.MaxBatchJobs = 2
		co := newTestCoordinator(t, cfg)
		waitHealthy(t, co, len(urls))
		return co
	}
	srv, url := worker(0)
	slow, slowURL := worker(time.Nanosecond)
	healthy, _ := worker(0)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/fill":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTeapot)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "teapot"})
		case "/v1/pipeline":
			hijackClose(w)
		default:
			healthy.Handler().ServeHTTP(w, r)
		}
	}))
	t.Cleanup(fake.Close)
	return map[string]http.Handler{
		"dpfilld":          srv.Handler(),
		"dpfill-coord":     coord(url).Handler(),
		"dpfilld 1ns":      slow.Handler(),
		"dpfill-coord 1ns": coord(slowURL).Handler(),
		"coord fake":       coord(fake.URL).Handler(),
		"coord empty":      coord().Handler(),
		"coord fallback":   newTestCoordinator(t, Config{}).Handler(),
	}
}

// TestErrorTable walks every error class through both tiers and pins
// its status and message. A class both tiers serve must answer the
// same on each: a client cannot tell a worker from a coordinator by
// its errors. The coordinator-only classes (a worker's error passed
// through, an empty fleet, a transport failure) run against a fleet
// rigged to produce them.
func TestErrorTable(t *testing.T) {
	h := errTiers(t)
	both := []string{"dpfilld", "dpfill-coord"}
	fill := func(extra string) string { return `{"cubes":["0X1","X10"]` + extra + `}` }
	// A one-fault sample of a circuit whose only sampled fault (seed 1)
	// is redundant: ATPG finds nothing to test, and the job fails.
	untestable := `{"netlist":"INPUT(a)\nOUTPUT(z)\nna = NOT(a)\nz = AND(a, na)\n","atpg":{"max_faults":1},"seed":1}`
	cases := []struct {
		class      string
		tiers      []string
		path, body string
		cancel     bool // serve under an already-cancelled request context
		status     int
		msg        string // the error payload starts with this
	}{
		{"malformed JSON", both, "/v1/fill", `{"cubes":`, false, 400, "malformed JSON: unexpected EOF"},
		{"unknown field", both, "/v1/fill", fill(`,"bogus":1`), false, 400, `malformed JSON: json: unknown field "bogus"`},
		{"trailing bytes", both, "/v1/batch", `{"jobs":[` + fill("") + `]} x`, false, 400, "malformed JSON: "},
		{"over-limit body", both, "/v1/fill", `{"cubes":["` + strings.Repeat("0", 5000) + `"]}`, false, 413, "request body exceeds 4096 bytes"},
		{"empty batch", both, "/v1/batch", `{"jobs":[]}`, false, 400, "batch carries no jobs"},
		{"over-limit batch", both, "/v1/batch", `{"jobs":[` + fill("") + `,` + fill("") + `,` + fill("") + `]}`, false, 400, "3 jobs exceed the batch limit 2"},
		{"bad orderer", both, "/v1/fill", fill(`,"orderer":"nope"`), false, 400, "order: unknown"},
		{"bad filler", both, "/v1/fill", fill(`,"filler":"nope"`), false, 400, "fill: unknown fill"},
		{"pipeline validation", both, "/v1/pipeline", `{}`, false, 400, "pipeline: bad request"},
		{"submit: empty batch", both, "/v1/jobs", `{"jobs":[]}`, false, 400, "batch carries no jobs"},
		{"submit: jobs and pipeline", both, "/v1/jobs", `{"jobs":[` + fill("") + `],"pipeline":{"spec":"b01"}}`, false, 400,
			"submit carries both jobs and a pipeline; pick one"},
		{"submit: pipeline validation", both, "/v1/jobs", `{"pipeline":{}}`, false, 400, "pipeline: bad request"},
		{"job deadline", []string{"dpfilld 1ns", "dpfill-coord 1ns"}, "/v1/fill", fill(""), false, 504, "context deadline exceeded"},
		{"client cancel", both, "/v1/fill", fill(""), true, 499, "context canceled"},
		{"client cancel, empty fleet", []string{"dpfilld", "coord fallback"}, "/v1/fill", fill(""), true, 499, "context canceled"},
		{"job failure", both, "/v1/pipeline", untestable, false, 422, `atpg: no testable faults in ""`},
		{"worker error passed through", []string{"coord fake"}, "/v1/fill", fill(""), false, http.StatusTeapot, "teapot"},
		{"no workers, fallback off", []string{"coord empty"}, "/v1/fill", fill(""), false, 503, "cluster: no healthy workers"},
		{"transport failure", []string{"coord fake"}, "/v1/pipeline", `{"spec":"b01"}`, false, 502, "client: POST /v1/pipeline"},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			var first string
			for i, tier := range tc.tiers {
				ctx, cancel := context.WithCancel(context.Background())
				if tc.cancel {
					cancel()
				}
				req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				h[tier].ServeHTTP(rec, req)
				cancel()
				var payload struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
					t.Fatalf("%s: undecodable error body %q: %v", tier, rec.Body.String(), err)
				}
				if rec.Code != tc.status || payload.Error == "" || !strings.HasPrefix(payload.Error, tc.msg) {
					t.Errorf("%s: %d %q, want %d %q...", tier, rec.Code, payload.Error, tc.status, tc.msg)
				}
				if i == 0 {
					first = payload.Error
				} else if payload.Error != first {
					t.Errorf("%s answers %q, %s %q", tier, payload.Error, tc.tiers[0], first)
				}
			}
		})
	}
}

// TestPipelineDeadlineStopsATPG: a /v1/pipeline request whose
// timeout_ms fires while ATPG runs answers 504 soon after its deadline
// on both tiers, whole or fault-sharded, not when b12's seconds-long
// ATPG would have finished.
func TestPipelineDeadlineStopsATPG(t *testing.T) {
	h := errTiers(t)
	for _, tier := range []string{"dpfilld", "dpfill-coord"} {
		for _, body := range []string{`{"spec":"b12","timeout_ms":100}`, `{"spec":"b12","timeout_ms":100,"atpg":{"shards":2}}`} {
			req := httptest.NewRequest(http.MethodPost, "/v1/pipeline", strings.NewReader(body))
			rec := httptest.NewRecorder()
			start := time.Now()
			h[tier].ServeHTTP(rec, req)
			took := time.Since(start)
			if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "context deadline exceeded") {
				t.Fatalf("%s %s: status %d %s, want 504 context deadline exceeded", tier, body, rec.Code, rec.Body.String())
			}
			if took >= 500*time.Millisecond {
				t.Fatalf("%s %s: a 100ms deadline answered after %v", tier, body, took)
			}
		}
	}
}
