package metrics

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lineRE matches one valid sample line of the text exposition format.
var lineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_jobs_total", "Jobs answered.", func() uint64 { return 3 })
	r.GaugeFunc("test_queue_depth", "Live queue depth.", func() float64 { return 7 })
	r.GaugeFunc("test_workers_healthy", "Admitted workers.", func() float64 { return 2 },
		Label{"tier", "coord"})
	h := r.Histogram("test_latency_seconds", "Fill latency.", nil)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	h.Observe(10 * time.Minute) // lands in +Inf

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	var b strings.Builder
	r.Write(&b)
	body := b.String()

	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Fatalf("invalid sample line: %q", line)
		}
		name, val, _ := strings.Cut(line, " ")
		samples[name] = val
	}
	want := map[string]string{
		"test_jobs_total":                        "3",
		"test_queue_depth":                       "7",
		`test_workers_healthy{tier="coord"}`:     "2",
		`test_latency_seconds_bucket{le="+Inf"}`: "3",
		"test_latency_seconds_count":             "3",
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("sample %s = %q, want %q", k, samples[k], v)
		}
	}
	// Buckets must be cumulative: the 50ms bucket holds both finite
	// observations, the 5ms bucket only the first.
	if got := samples[`test_latency_seconds_bucket{le="0.05"}`]; got != "2" {
		t.Errorf("50ms bucket = %q, want 2", got)
	}
	if got := samples[`test_latency_seconds_bucket{le="0.005"}`]; got != "1" {
		t.Errorf("5ms bucket = %q, want 1", got)
	}
	sum, err := strconv.ParseFloat(samples["test_latency_seconds_sum"], 64)
	if err != nil || sum < 600.0 || sum > 600.1 {
		t.Errorf("histogram sum = %q, want ~600.043s", samples["test_latency_seconds_sum"])
	}
	// TYPE lines must precede their samples.
	if !strings.Contains(body, "# TYPE test_jobs_total counter") ||
		!strings.Contains(body, "# TYPE test_queue_depth gauge") ||
		!strings.Contains(body, "# TYPE test_latency_seconds histogram") {
		t.Fatalf("missing TYPE lines in:\n%s", body)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "x", []time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Millisecond) // on the bound: counts as <= 1ms
	h.Observe(time.Millisecond + 1)
	h.Observe(-time.Second) // clamped to 0
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("first bucket = %d, want 2 (bound-inclusive + clamped negative)", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("second bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

// TestConcurrentObserve exercises the atomic hot paths under -race:
// histogram observations and a counter the registry reads at scrape
// time, both landing while scrapes run.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	r.CounterFunc("conc_total", "x", c.Load)
	h := r.Histogram("conc_seconds", "x", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	// Scrape while observations land.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.Write(&b)
		}
	}()
	wg.Wait()
	<-done
	if c.Load() != 8000 || h.Count() != 8000 {
		t.Fatalf("counts = %d/%d, want 8000 each", c.Load(), h.Count())
	}
	if out := scrape(r); !strings.Contains(out, "conc_total 8000\n") || !strings.Contains(out, "conc_seconds_count 8000\n") {
		t.Fatalf("final scrape does not show 8000 of each:\n%s", out)
	}
}

func TestDuplicateKindPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup_name", "x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("registering dup_name as a gauge after a counter did not panic")
		}
	}()
	r.GaugeFunc("dup_name", "x", func() float64 { return 0 })
}
