package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
)

// newTestServer mounts a fresh service on an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

// post sends a JSON body and decodes the JSON response into out.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func TestFillHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var out FillResponse
	status := post(t, ts.URL+"/v1/fill", FillRequest{
		Name:  "quad",
		Cubes: []string{"00", "XX", "XX", "11"},
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.Filler != "DP-fill" || out.Orderer != "Tool" {
		t.Fatalf("defaults resolved to %s/%s", out.Filler, out.Orderer)
	}
	if out.Peak != 1 || out.Rows != 4 || out.Width != 2 || out.Cached {
		t.Fatalf("unexpected response: %+v", out)
	}
	if len(out.Cubes) != 4 || len(out.Profile) != 3 {
		t.Fatalf("cubes/profile shape: %+v", out)
	}
	// The output must be a completion of the input.
	in := cube.MustParseSet("00", "XX", "XX", "11")
	filled, err := cube.ParseSet(out.Cubes...)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Covers(filled) {
		t.Fatal("response cubes are not a completion of the request")
	}
}

func TestFillSTILPayload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var stil bytes.Buffer
	if err := cube.WriteSTIL(&stil, cube.MustParseSet("0XX1", "1XX0", "0XX0"), "t"); err != nil {
		t.Fatal(err)
	}
	var out FillResponse
	status := post(t, ts.URL+"/v1/fill", FillRequest{STIL: stil.String(), Filler: "xstat", Orderer: "i"}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.Filler != "X-Stat" || out.Orderer != "I-Order" {
		t.Fatalf("resolved %s/%s", out.Filler, out.Orderer)
	}
	if out.Rows != 3 || out.Width != 4 || len(out.Perm) != 3 {
		t.Fatalf("shape: %+v", out)
	}
}

func TestFillValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRows: 4, MaxCols: 8})
	cases := []struct {
		name string
		req  FillRequest
	}{
		{"no payload", FillRequest{}},
		{"both payloads", FillRequest{Cubes: []string{"0"}, STIL: "STIL"}},
		{"bad symbol", FillRequest{Cubes: []string{"012"}}},
		{"ragged widths", FillRequest{Cubes: []string{"01", "011"}}},
		{"too many rows", FillRequest{Cubes: []string{"0", "1", "0", "1", "0"}}},
		{"too wide", FillRequest{Cubes: []string{"010101010"}}},
		{"bad stil", FillRequest{STIL: "not a pattern block"}},
		{"unknown filler", FillRequest{Cubes: []string{"0X"}, Filler: "nope"}},
		{"unknown orderer", FillRequest{Cubes: []string{"0X"}, Orderer: "nope"}},
	}
	for _, tc := range cases {
		var out errorResponse
		if status := post(t, ts.URL+"/v1/fill", tc.req, &out); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if out.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestFillRejectsOverWideBeforeParsing: an over-wide request answers
// 400 with the column-limit text it always had, inline or as STIL, and
// the inline check runs on the first cube's length before any plane is
// allocated — a body of wide cubes costs its refusal, not W×N bits.
func TestFillRejectsOverWideBeforeParsing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRows: 8, MaxCols: 8})
	var stil bytes.Buffer
	if err := cube.WriteSTIL(&stil, cube.MustParseSet("010101010", "XXXXXXXXX"), "t"); err != nil {
		t.Fatal(err)
	}
	const want = "cube width 9 exceeds the column limit 8"
	for name, req := range map[string]FillRequest{
		"inline":      {Cubes: []string{"010101010", "XXXXXXXXX"}},
		"inline x":    {Cubes: []string{"01xx-10X0"}},
		"stil":        {STIL: stil.String()},
		"batch-sized": {Cubes: []string{strings.Repeat("X", 9), strings.Repeat("1", 9), strings.Repeat("0", 9)}},
	} {
		var out errorResponse
		if status := post(t, ts.URL+"/v1/fill", req, &out); status != http.StatusBadRequest || out.Error != want {
			t.Errorf("%s: %d %q, want 400 %q", name, status, out.Error, want)
		}
	}

	wide := strings.Repeat("X", 1<<20)
	cubes := []string{wide, wide, wide, wide, wide, wide, wide, wide}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.parseSet(cubes, "")
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "cube width 1048576 exceeds the column limit 8" {
		t.Fatalf("parseSet error %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing an over-wide set allocated %d bytes", got)
	}
}

func TestFillMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"{not json", `{"cubes": "not-an-array"}`, `{"unknown_field": 1}`, ""} {
		resp, err := http.Post(ts.URL+"/v1/fill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestFillOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{FrontConfig: FrontConfig{MaxBodyBytes: 128}})
	big := FillRequest{Cubes: []string{strings.Repeat("X", 4096)}}
	var out errorResponse
	if status := post(t, ts.URL+"/v1/fill", big, &out); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", status)
	}
	if !strings.Contains(out.Error, "128") {
		t.Fatalf("error %q does not name the limit", out.Error)
	}
}

func TestFillMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/fill")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/fill: status %d, want 405", resp.StatusCode)
	}
}

func TestFillTimeoutReports504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A set big enough that DP-fill cannot finish inside 1ms.
	r := rand.New(rand.NewSource(3))
	cubes := make([]string, 800)
	for i := range cubes {
		var sb strings.Builder
		for j := 0; j < 600; j++ {
			switch {
			case r.Float64() < 0.9:
				sb.WriteByte('X')
			case r.Intn(2) == 0:
				sb.WriteByte('0')
			default:
				sb.WriteByte('1')
			}
		}
		cubes[i] = sb.String()
	}
	var out errorResponse
	status := post(t, ts.URL+"/v1/fill", FillRequest{Cubes: cubes, TimeoutMillis: 1}, &out)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (error %q)", status, out.Error)
	}
}

func TestFillCacheHitSkipsRecomputation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := FillRequest{Cubes: []string{"0XX0", "XXXX", "1XX1"}, Filler: "dp", Orderer: "i"}
	var first, second FillResponse
	if status := post(t, ts.URL+"/v1/fill", req, &first); status != http.StatusOK {
		t.Fatalf("first: status %d", status)
	}
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	if status := post(t, ts.URL+"/v1/fill", req, &second); status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if second.Peak != first.Peak || strings.Join(second.Cubes, ",") != strings.Join(first.Cubes, ",") {
		t.Fatal("cached response differs from computed response")
	}
	// A different algorithm pair on the same cubes is a different key.
	var third FillResponse
	other := req
	other.Filler = "mt"
	if status := post(t, ts.URL+"/v1/fill", other, &third); status != http.StatusOK {
		t.Fatalf("third: status %d", status)
	}
	if third.Cached {
		t.Fatal("different filler hit the same cache entry")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.JobsServed != 3 {
		t.Fatalf("stats after 3 requests: %+v", st)
	}
}

func TestFillOmitCubes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out FillResponse
	status := post(t, ts.URL+"/v1/fill", FillRequest{Cubes: []string{"0X", "X1"}, OmitCubes: true}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.Cubes != nil {
		t.Fatalf("omit_cubes response still carries cubes: %v", out.Cubes)
	}
	if out.Peak < 0 || out.Rows != 2 {
		t.Fatalf("statistics missing: %+v", out)
	}
}

func TestBatchMixedResults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := BatchRequest{Jobs: []FillRequest{
		{Name: "good-a", Cubes: []string{"0XX0", "1XX1"}},
		{Name: "bad", Cubes: []string{"0z"}},
		{Name: "good-b", Cubes: []string{"0XX0", "1XX1"}, Filler: "b", Priority: 3},
		{Name: "bad-algo", Cubes: []string{"01"}, Filler: "nope"},
	}}
	var out BatchResponse
	if status := post(t, ts.URL+"/v1/batch", req, &out); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(out.Results) != 4 || out.Failed != 2 {
		t.Fatalf("results/failed: %+v", out)
	}
	for i, wantErr := range []bool{false, true, false, true} {
		it := out.Results[i]
		if wantErr && (it.Error == "" || it.Result != nil) {
			t.Fatalf("job %d should have failed: %+v", i, it)
		}
		if !wantErr && (it.Error != "" || it.Result == nil) {
			t.Fatalf("job %d should have succeeded: %+v", i, it)
		}
	}
	if name := out.Results[0].Result.Name; name != "good-a" {
		t.Fatalf("result 0 answers %q — batch order lost", name)
	}
}

// TestBatchDeduplicatesIdenticalJobs pins the in-batch dedup: jobs
// with identical digests compute once and share the result, and the
// duplicates count as cache hits.
func TestBatchDeduplicatesIdenticalJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	job := FillRequest{Cubes: []string{"0XX0", "XXXX", "1XX1"}}
	req := BatchRequest{Jobs: []FillRequest{job, job, job}}
	var out BatchResponse
	if status := post(t, ts.URL+"/v1/batch", req, &out); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.Failed != 0 || len(out.Results) != 3 {
		t.Fatalf("results: %+v", out)
	}
	first := out.Results[0].Result
	if first.Cached {
		t.Fatal("first instance claims a cache hit")
	}
	for i, it := range out.Results[1:] {
		if it.Result == nil || !it.Result.Cached {
			t.Fatalf("duplicate %d did not share the computed result: %+v", i+1, it)
		}
		if it.Result.Peak != first.Peak ||
			strings.Join(it.Result.Cubes, ",") != strings.Join(first.Cubes, ",") {
			t.Fatalf("duplicate %d answer differs from the computed one", i+1)
		}
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 2 || st.JobsServed != 3 {
		t.Fatalf("stats after deduped batch: %+v", st)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{FrontConfig: FrontConfig{MaxBatchJobs: 2}})
	if status := post(t, ts.URL+"/v1/batch", BatchRequest{}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", status)
	}
	three := BatchRequest{Jobs: make([]FillRequest, 3)}
	if status := post(t, ts.URL+"/v1/batch", three, nil); status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", status)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Serve a couple of jobs, then check the stats payload.
	var fr FillResponse
	post(t, ts.URL+"/v1/fill", FillRequest{Cubes: []string{"0X", "X1"}}, &fr)
	post(t, ts.URL+"/v1/fill", FillRequest{Cubes: []string{"0X", "X1"}}, &fr)
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsServed != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CacheHitRate != 0.5 || st.LatencySamples != 2 {
		t.Fatalf("rates: %+v", st)
	}
	if st.P50Millis < 0 || st.P99Millis < st.P50Millis {
		t.Fatalf("latency percentiles inconsistent: %+v", st)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}

// TestServeGracefulShutdown runs the real listener path: Serve must
// answer requests until its context is cancelled, then return nil
// after a clean shutdown.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{Workers: 1, FrontConfig: FrontConfig{ShutdownGrace: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz while serving: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of cancel")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe(context.Background(), "256.256.256.256:1"); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// TestConcurrentClients hammers the service from many goroutines; run
// under -race this pins the cache, metrics and shared engine pool as
// data-race free, and every response must still be exact.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheSize: 8})
	sets := [][]string{
		{"0XX0", "XXXX", "1XX1"},
		{"00", "XX", "XX", "11"},
		{"0X1X0", "1XXX1", "XX0XX", "X1X1X"},
	}
	// Establish the expected peak per set once.
	want := make([]int, len(sets))
	for i, cubes := range sets {
		var out FillResponse
		if status := post(t, ts.URL+"/v1/fill", FillRequest{Cubes: cubes}, &out); status != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, status)
		}
		want[i] = out.Peak
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(sets)
				raw, _ := json.Marshal(FillRequest{Cubes: sets[i]})
				resp, err := client.Post(ts.URL+"/v1/fill", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- err
					return
				}
				var out FillResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if out.Peak != want[i] {
					errc <- fmt.Errorf("goroutine %d: set %d peak %d, want %d", g, i, out.Peak, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
