package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

// stageSum folds a trace's named stages; the explain contract is that
// they sum exactly to the recorded total.
func stageSum(tr *core.Trace) int64 {
	var sum int64
	for _, st := range tr.StageNS() {
		sum += st.NS
	}
	return sum
}

// TestSlowRingEvictsOldest: the ring keeps the most recent captures,
// snapshots them newest first, and a nil ring is a safe no-op.
func TestSlowRingEvictsOldest(t *testing.T) {
	r := NewSlowRing(3)
	for i := 0; i < 5; i++ {
		r.Add(SlowRequest{Path: fmt.Sprintf("/v1/fill/%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d captures, want 3", len(snap))
	}
	for i, want := range []string{"/v1/fill/4", "/v1/fill/3", "/v1/fill/2"} {
		if snap[i].Path != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", i, snap[i].Path, want)
		}
	}
	var nilRing *SlowRing
	nilRing.Add(SlowRequest{})
	if nilRing.Snapshot() != nil {
		t.Fatal("nil ring snapshot is not nil")
	}
}

// TestSlowCaptureRecordsBreachWithExplain: with a threshold every
// request breaches, a fill lands in /stats slow_requests carrying its
// trace ID and the fill-core explain evidence — without the request
// having asked for debug.
func TestSlowCaptureRecordsBreachWithExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{FrontConfig: FrontConfig{SlowThreshold: time.Nanosecond}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fill",
		jsonBody(t, FillRequest{Cubes: []string{"0XX1", "X10X", "1XX0"}}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "rid-slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var st Stats
	if status := getJSON(t, ts.URL+"/stats", &st); status != http.StatusOK {
		t.Fatalf("/stats status %d", status)
	}
	if len(st.SlowRequests) == 0 {
		t.Fatal("no slow request captured under a 1ns SLO")
	}
	sr := st.SlowRequests[0]
	if sr.Path != "/v1/fill" || sr.Method != http.MethodPost {
		t.Fatalf("captured %s %s, want POST /v1/fill", sr.Method, sr.Path)
	}
	if sr.Rid != "rid-slow-1" {
		t.Fatalf("capture rid = %q, want rid-slow-1", sr.Rid)
	}
	if sr.Status != http.StatusOK {
		t.Fatalf("capture status = %d", sr.Status)
	}
	if sr.DurationMillis <= 0 {
		t.Fatalf("capture duration = %v", sr.DurationMillis)
	}
	if sr.Explain == nil {
		t.Fatal("capture carries no explain trace for a DP fill")
	}
	if got := stageSum(sr.Explain); got != sr.Explain.TotalNS {
		t.Fatalf("captured explain stages sum to %d, total %d", got, sr.Explain.TotalNS)
	}
}

// TestSlowCaptureDisabled: a negative threshold turns the whole layer
// off — no ring, no slow_requests field.
func TestSlowCaptureDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{FrontConfig: FrontConfig{SlowThreshold: -1}})
	var out FillResponse
	if status := post(t, ts.URL+"/v1/fill", FillRequest{Cubes: []string{"0X", "X1"}}, &out); status != http.StatusOK {
		t.Fatalf("fill status %d", status)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.SlowRequests != nil {
		t.Fatalf("capture disabled but /stats carries %d slow requests", len(st.SlowRequests))
	}
}

// TestDebugFillReturnsExplain: debug:true surfaces the fill's stage
// trace on the response; the stage timings honor the sum identity; a
// cache hit replays the populating run's trace; and without debug the
// response carries no explain even though the server still traced.
func TestDebugFillReturnsExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := FillRequest{Cubes: []string{"0XX0", "XX1X", "1X0X", "XXXX"}, Debug: true}
	var first FillResponse
	if status := post(t, ts.URL+"/v1/fill", req, &first); status != http.StatusOK {
		t.Fatalf("fill status %d", status)
	}
	if first.Explain == nil {
		t.Fatal("debug fill returned no explain")
	}
	tr := first.Explain
	if got := stageSum(tr); got != tr.TotalNS || tr.TotalNS <= 0 {
		t.Fatalf("explain stages sum to %d, total %d", got, tr.TotalNS)
	}
	if tr.Rows != 4 || tr.Cols != 4 {
		t.Fatalf("explain shape %dx%d, want 4x4", tr.Rows, tr.Cols)
	}

	var cached FillResponse
	if status := post(t, ts.URL+"/v1/fill", req, &cached); status != http.StatusOK {
		t.Fatalf("cached fill status %d", status)
	}
	if !cached.Cached {
		t.Fatal("second identical fill missed the cache")
	}
	if cached.Explain == nil || cached.Explain.TotalNS != tr.TotalNS {
		t.Fatalf("cache hit explain = %+v, want the populating run's trace", cached.Explain)
	}

	var plain FillResponse
	req.Debug = false
	req.Seed = 2 // fresh digest: skip the cache entry built above
	if status := post(t, ts.URL+"/v1/fill", req, &plain); status != http.StatusOK {
		t.Fatalf("plain fill status %d", status)
	}
	if plain.Explain != nil {
		t.Fatal("non-debug fill leaked an explain trace")
	}
}

// TestDebugBatchReturnsPerJobExplains: batch-level debug returns one
// explain per DP job (including deduplicated repeats), each honoring
// the stage-sum identity; baseline fillers have no trace to return.
func TestDebugBatchReturnsPerJobExplains(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	breq := BatchRequest{
		Debug: true,
		Jobs: []FillRequest{
			{Cubes: []string{"0XX1", "X1X0", "XXXX"}},
			{Cubes: []string{"0XX1", "X1X0", "XXXX"}}, // dedup of job 0
			{Cubes: []string{"1X0X", "X0X1"}, Filler: "0"},
		},
	}
	var out BatchResponse
	if status := post(t, ts.URL+"/v1/batch", breq, &out); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d jobs", len(out.Results))
	}
	for i := 0; i < 2; i++ {
		tr := out.Results[i].Result.Explain
		if tr == nil {
			t.Fatalf("debug batch job %d returned no explain", i)
		}
		if got := stageSum(tr); got != tr.TotalNS {
			t.Fatalf("job %d stages sum to %d, total %d", i, got, tr.TotalNS)
		}
	}
	if out.Results[2].Result.Explain != nil {
		t.Fatal("0-fill job returned a fill-core trace")
	}
}

// jsonBody marshals v for a hand-built request.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}
