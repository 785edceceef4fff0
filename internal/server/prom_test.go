package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndpoint scrapes the worker tier: Prometheus text format
// 0.0.4 with the serving families present and fed by real traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := FillRequest{Name: "m", Cubes: []string{"0X", "X1"}}
	var out FillResponse
	if status := post(t, ts.URL+"/v1/fill", req, &out); status != http.StatusOK {
		t.Fatalf("fill: status %d", status)
	}
	// Second identical fill: a cache hit, so both cache counters move.
	if status := post(t, ts.URL+"/v1/fill", req, &out); status != http.StatusOK {
		t.Fatalf("fill: status %d", status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE dpfill_jobs_total counter",
		"# TYPE dpfill_errors_total counter",
		"# TYPE dpfill_cache_hits_total counter",
		"# TYPE dpfill_cache_misses_total counter",
		"# TYPE dpfill_cache_entries gauge",
		"# TYPE dpfill_queue_depth gauge",
		"# TYPE dpfill_inflight gauge",
		"# TYPE dpfill_engine_workers gauge",
		"# TYPE dpfill_fill_latency_seconds histogram",
		"# TYPE dpfill_async_jobs_active gauge",
		"# TYPE dpfill_wal_records_total counter",
		"# TYPE dpfill_wal_journal_bytes gauge",
		`dpfill_async_jobs_active{tier="worker"} 0`,
		"dpfill_jobs_total 2\n",
		"dpfill_cache_hits_total 1\n",
		"dpfill_cache_misses_total 1\n",
		"dpfill_engine_workers 2\n",
		`dpfill_fill_latency_seconds_bucket{le="+Inf"} 2`,
		"dpfill_fill_latency_seconds_count 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
	// A served fill never unpacks, so the stage has no series.
	if strings.Contains(body, `stage="unpack"`) {
		t.Fatalf("scrape carries an unpack fill-stage series:\n%s", body)
	}
}

// TestValidationFailureCounted: a job that fails validation is an
// error on /v1/fill exactly as it is an item error on /v1/batch; both
// /stats errors and dpfill_errors_total count it on either path.
func TestValidationFailureCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := FillRequest{Cubes: []string{"0z"}}
	errorsNow := func() (uint64, string) {
		t.Helper()
		var st Stats
		if status := getJSON(t, ts.URL+"/stats", &st); status != http.StatusOK {
			t.Fatalf("/stats: status %d", status)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "dpfill_errors_total "); ok {
				return st.Errors, v
			}
		}
		t.Fatalf("scrape has no dpfill_errors_total sample:\n%s", raw)
		return 0, ""
	}
	if status := post(t, ts.URL+"/v1/fill", bad, nil); status != http.StatusBadRequest {
		t.Fatalf("/v1/fill of a bad cube: status %d, want 400", status)
	}
	if st, prom := errorsNow(); st != 1 || prom != "1" {
		t.Fatalf("after /v1/fill: /stats errors %d, dpfill_errors_total %s; want 1 and 1", st, prom)
	}
	var out BatchResponse
	if status := post(t, ts.URL+"/v1/batch", BatchRequest{Jobs: []FillRequest{bad}}, &out); status != http.StatusOK || out.Failed != 1 {
		t.Fatalf("/v1/batch of a bad cube: status %d, failed %d; want 200 and 1", status, out.Failed)
	}
	if st, prom := errorsNow(); st != 2 || prom != "2" {
		t.Fatalf("after /v1/batch: /stats errors %d, dpfill_errors_total %s; want 2 and 2", st, prom)
	}
}
