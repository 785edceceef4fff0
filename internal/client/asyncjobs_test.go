package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

func smallBatch() BatchRequest {
	return BatchRequest{Jobs: []FillRequest{
		{Name: "a", Cubes: []string{"0X", "X1"}},
		{Name: "b", Cubes: []string{"1X", "X0"}},
	}}
}

// TestSubmitJobRetriesAfterKilledConnection pins the double-submit
// fix end to end: the server journals the job, the connection dies
// before the 202 reaches the client, the client retries — and because
// every retry carries the same idempotency key, the fleet holds ONE
// job and the retry answers its original ID.
func TestSubmitJobRetriesAfterKilledConnection(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	var killed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && killed.CompareAndSwap(false, true) {
			// Run the real handler so the job is journaled and queued,
			// then kill the connection instead of answering — the
			// moment a lost 202 used to turn a retry into a duplicate.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			t.Error("test transport cannot hijack")
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitJob(context.Background(), smallBatch())
	if err != nil {
		t.Fatalf("submit did not survive the killed connection: %v", err)
	}
	if !killed.Load() {
		t.Fatal("fault never injected")
	}
	list, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("%d jobs accepted, want exactly 1 (duplicate submitted)", len(list))
	}
	if list[0].ID != st.ID {
		t.Fatalf("retry answered job %s but the fleet holds %s", st.ID, list[0].ID)
	}
	final, err := c.WaitJob(context.Background(), st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JobBatchResult(final); err != nil {
		t.Fatal(err)
	}
}

// TestWaitJobPollsToTerminal: WaitJob reads the job through plain
// GET /v1/jobs/{id} polls and hands every polled snapshot to its
// callback, the terminal one last.
func TestWaitJobPollsToTerminal(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path != "/v1/jobs" {
			polls.Add(1)
			if r.URL.RawQuery != "" {
				t.Errorf("poll carried query %q", r.URL.RawQuery)
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitJob(context.Background(), smallBatch())
	if err != nil {
		t.Fatal(err)
	}
	var events []JobStatus
	final, err := c.WaitJob(context.Background(), st.ID, 5*time.Millisecond, func(st JobStatus) { events = append(events, st) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("terminal state %s", final.State)
	}
	if n := polls.Load(); n == 0 || int(n) != len(events) {
		t.Fatalf("%d polls delivered %d callback events", n, len(events))
	}
	if last := events[len(events)-1]; last.State != jobs.StateDone || string(last.Result) != string(final.Result) {
		t.Fatalf("last callback event %+v is not the terminal snapshot", last)
	}
}
