package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reqid"
)

// TestRequestIDEchoedAndMinted pins the worker half of the fleet's
// request-ID contract: an incoming X-Request-ID comes back on the
// response, and a request without one gets a fresh ID.
func TestRequestIDEchoedAndMinted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"cubes":["0X","X1"]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fill", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(reqid.Header, "rid-worker-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(reqid.Header); got != "rid-worker-9" {
		t.Fatalf("echoed request ID %q, want rid-worker-9", got)
	}

	resp, err = http.Post(ts.URL+"/v1/fill", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if minted := resp.Header.Get(reqid.Header); len(minted) != 16 {
		t.Fatalf("minted request ID %q, want 16 hex chars", minted)
	}
}

// TestAccessLogCarriesRequestID: with Config.Log set, every request
// writes one line naming method, path, status and the request ID.
func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{FrontConfig: FrontConfig{Log: slog.New(slog.NewTextHandler(&buf, nil))}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fill", strings.NewReader(`{"cubes":["012"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(reqid.Header, "rid-log-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{"POST", "/v1/fill", "400", "rid=rid-log-1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log %q missing %q", line, want)
		}
	}
}

// lockedBuf is a goroutine-safe log sink: the async job workers write
// settlement records from their own goroutines.
type lockedBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestAsyncJobCompletionLogCarriesRequestID: a job submitted through
// POST /v1/jobs with an X-Request-ID settles minutes later on a worker
// goroutine — its completion record must still carry the submitting
// request's trace ID, so operators can join the access log's 202 to
// the eventual settlement.
func TestAsyncJobCompletionLogCarriesRequestID(t *testing.T) {
	var buf lockedBuf
	s, err := New(Config{FrontConfig: FrontConfig{Log: slog.New(slog.NewTextHandler(&buf, nil))}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })

	body := `{"jobs":[{"cubes":["0XX1","X10X"]}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(reqid.Header, "rid-async-5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var line string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, "msg=job") && strings.Contains(l, "id="+st.ID) {
				line = l
				break
			}
		}
		if line != "" {
			for _, want := range []string{"state=done", "rid=rid-async-5"} {
				if !strings.Contains(line, want) {
					t.Fatalf("settlement record %q missing %q", line, want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no settlement record for job %s in log:\n%s", st.ID, buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatsExposesEngineOccupancy: /stats carries the engine queue
// depth, in-flight count and worker bound the coordinator ranks by.
func TestStatsExposesEngineOccupancy(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Fatalf("idle server reports occupancy: %+v", st)
	}
	if st.EngineWorkers != 3 {
		t.Fatalf("engine_workers = %d, want 3", st.EngineWorkers)
	}
}
