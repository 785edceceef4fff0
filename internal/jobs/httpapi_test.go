package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// mountTestAPI serves a Manager through Mount with a pass-through
// submit decoder (the body is the payload; "bad" is rejected).
func mountTestAPI(t *testing.T, m *Manager) string {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, m, func(w http.ResponseWriter, r *http.Request) (json.RawMessage, int, bool) {
		body, err := io.ReadAll(r.Body)
		if err != nil || strings.Contains(string(body), "bad") {
			writeJobJSON(w, http.StatusBadRequest, map[string]string{"error": "bad payload"})
			return nil, 0, false
		}
		return body, 1, true
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func httpJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPILifecycle(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)

	var st Status
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `{"work":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit snapshot: %+v", st)
	}
	waitState(t, m, st.ID, StateDone)
	var got Status
	if code := httpJSON(t, http.MethodGet, url+"/v1/jobs/"+st.ID, "", &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.State != StateDone || string(got.Result) != `{"work":1}` {
		t.Fatalf("get: %+v", got)
	}
	var list StatusList
	if code := httpJSON(t, http.MethodGet, url+"/v1/jobs", "", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list: %+v", list)
	}
	// Rejected submit never reaches the manager.
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `bad`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad submit: status %d, want 400", code)
	}
	// Unknown IDs are 404; cancelling the settled job is 409.
	if code := httpJSON(t, http.MethodGet, url+"/v1/jobs/absent", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown get: status %d, want 404", code)
	}
	if code := httpJSON(t, http.MethodDelete, url+"/v1/jobs/"+st.ID, "", nil); code != http.StatusConflict {
		t.Fatalf("settled cancel: status %d, want 409", code)
	}
}

func TestHTTPAPICancelAndQueueFull(t *testing.T) {
	r := &echoRunner{gate: make(chan struct{})}
	m, err := Open(Config{Runner: r.run, Workers: 1, MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)

	var first, second Status
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `1`, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitState(t, m, first.ID, StateRunning)
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `2`, &second); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `3`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", code)
	}
	var cancelled Status
	if code := httpJSON(t, http.MethodDelete, url+"/v1/jobs/"+second.ID, "", &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("cancel state %s", cancelled.State)
	}
	close(r.gate)
	waitState(t, m, first.ID, StateDone)
}

func TestHTTPAPISubmitAfterClose(t *testing.T) {
	r := &echoRunner{}
	m, err := Open(Config{Runner: r.run})
	if err != nil {
		t.Fatal(err)
	}
	url := mountTestAPI(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `1`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d, want 503", code)
	}
}

// TestWALReplayOfFailedAndCancelledJobs covers the remaining terminal
// record shapes: fail and cancel records replay to their states and do
// not re-run.
func TestWALReplayOfFailedAndCancelledJobs(t *testing.T) {
	dir := t.TempDir()
	gated := &echoRunner{gate: make(chan struct{})}
	failing := func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		if string(p) == `"fail"` {
			return nil, errors.New("synthetic failure")
		}
		return gated.run(ctx, p)
	}
	m, err := Open(Config{Runner: failing, Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := m.Submit(json.RawMessage(`"fail"`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, failed.ID, StateFailed)
	tocancel, err := m.Submit(json.RawMessage(`"gate"`), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, tocancel.ID, StateRunning)
	if _, err := m.Cancel(tocancel.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, tocancel.ID, StateCancelled)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Runner: func(context.Context, json.RawMessage) (json.RawMessage, error) {
		t.Error("settled job re-ran after replay")
		return nil, errors.New("unreachable")
	}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st, _ := m2.Get(failed.ID); st.State != StateFailed || st.Error != "synthetic failure" {
		t.Fatalf("failed job replayed as %+v", st)
	}
	if st, _ := m2.Get(tocancel.ID); st.State != StateCancelled {
		t.Fatalf("cancelled job replayed as %+v", st)
	}
}

// TestGetReportsMidRunProgress: progress a Runner reports while it is
// still running reaches GET /v1/jobs/{id} before the job settles.
func TestGetReportsMidRunProgress(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{Runner: func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		Progress(ctx)(1)
		select {
		case <-gate:
			return payload, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)
	var st Status
	if code := httpJSON(t, http.MethodPost, url+"/v1/jobs", `{"work":1}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Done == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		httpJSON(t, http.MethodGet, url+"/v1/jobs/"+st.ID, "", &st)
	}
	if st.State != StateRunning || st.Done != 1 {
		t.Fatalf("before the gate opened: state %s done %d, want running 1", st.State, st.Done)
	}
	close(gate)
	if got := waitState(t, m, st.ID, StateDone); got.Done != got.Total {
		t.Fatalf("settled with done %d of %d", got.Done, got.Total)
	}
}

// TestWatchUnknownJobAnswers404: a watch parameter on an unknown job
// answers the plain GET's 404.
func TestWatchUnknownJobAnswers404(t *testing.T) {
	m, err := Open(Config{Runner: (&echoRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)
	var out map[string]string
	if code := httpJSON(t, http.MethodGet, url+"/v1/jobs/ghost?watch=1", "", &out); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}

// TestSubmitHTTPDedupesOnIdempotencyKey: two POSTs with the same
// X-Idempotency-Key answer the same job.
func TestSubmitHTTPDedupesOnIdempotencyKey(t *testing.T) {
	m, err := Open(Config{Runner: (&echoRunner{}).run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	url := mountTestAPI(t, m)

	submit := func() Status {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(`{"work":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyHeader, "http-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := submit(), submit()
	if a.ID != b.ID {
		t.Fatalf("same key minted two jobs: %s, %s", a.ID, b.ID)
	}
	if got := len(m.List().Jobs); got != 1 {
		t.Fatalf("%d jobs retained, want 1", got)
	}
}
