package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func scrape(r *Registry) string {
	var b strings.Builder
	r.Write(&b)
	return b.String()
}

// TestCounterFuncReadsSourceAtScrape: a CounterFunc series renders the
// source's current value on every scrape, with no registry-side copy.
func TestCounterFuncReadsSourceAtScrape(t *testing.T) {
	r := NewRegistry()
	var v uint64 = 7
	r.CounterFunc("src_total", "Reads an external counter.", func() uint64 { return v })
	if !strings.Contains(scrape(r), "src_total 7\n") {
		t.Fatalf("scrape missing src_total 7:\n%s", scrape(r))
	}
	v = 19
	if !strings.Contains(scrape(r), "src_total 19\n") {
		t.Fatalf("scrape did not follow the source to 19:\n%s", scrape(r))
	}
}

// TestSLOObserveAndBurnRate: breaches count against the threshold, and
// the burn rate is computed over the sliding window only, so it decays
// once the slow spell ends.
func TestSLOObserveAndBurnRate(t *testing.T) {
	s := NewSLO(10*time.Millisecond, 4)
	if s.Threshold() != 10*time.Millisecond {
		t.Fatalf("threshold = %v", s.Threshold())
	}
	if got := s.BurnRate(); got != 0 {
		t.Fatalf("burn rate before any request = %v", got)
	}
	if s.Observe(time.Millisecond) {
		t.Fatal("1ms observed as a breach of a 10ms SLO")
	}
	if !s.Observe(20 * time.Millisecond) {
		t.Fatal("20ms not observed as a breach of a 10ms SLO")
	}
	if got := s.BurnRate(); got != 0.5 {
		t.Fatalf("burn rate after 1 breach / 2 requests = %v, want 0.5", got)
	}
	// Four fast requests fill the window and evict the breach.
	for i := 0; i < 4; i++ {
		s.Observe(time.Millisecond)
	}
	if got := s.BurnRate(); got != 0 {
		t.Fatalf("burn rate after window rolled over = %v, want 0", got)
	}
}

// TestSLORegister: Register mounts the four families, labelled with
// the tier, with live totals.
func TestSLORegister(t *testing.T) {
	s := NewSLO(time.Second, 0) // 0 window picks the default
	s.Observe(2 * time.Second)
	s.Observe(time.Millisecond)
	r := NewRegistry()
	s.Register(r, "coord")
	out := scrape(r)
	for _, want := range []string{
		`dpfill_slo_requests_total{tier="coord"} 2`,
		`dpfill_slo_breaches_total{tier="coord"} 1`,
		`dpfill_slo_burn_rate{tier="coord"} 0.5`,
		`dpfill_slo_threshold_seconds{tier="coord"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SLO scrape missing %q:\n%s", want, out)
		}
	}
}

// TestWriteKeepsRegistrationOrder: families render in the order they
// were registered, not sorted by name.
func TestWriteKeepsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("b_total", "b", func() uint64 { return 0 })
	r.GaugeFunc("a_gauge", "a", func() float64 { return 0 })
	out := scrape(r)
	if b, a := strings.Index(out, "# TYPE b_total"), strings.Index(out, "# TYPE a_gauge"); b < 0 || a < b {
		t.Fatalf("families out of registration order:\n%s", out)
	}
}

// TestFormatFloatSpecials: the text format spells out the IEEE
// specials instead of printing Go's default representations.
func TestFormatFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		2:            "2",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Fatalf("formatFloat(NaN) = %q", got)
	}
}
