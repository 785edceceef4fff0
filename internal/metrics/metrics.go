// Package metrics is the fleet's Prometheus instrumentation layer: a
// dependency-free registry of counters, gauges and histograms rendered
// in the Prometheus text exposition format (version 0.0.4), mounted as
// GET /metrics on every daemon.
//
// A subsystem owns its counters and gauges; the registry reads them at
// scrape time through CounterFunc and GaugeFunc. The one eagerly-fed
// type is Histogram, whose Observe is atomic-only — no mutex, no
// allocation. The registry mutex is taken only at registration time
// and at scrape time.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// kind is a metric family's TYPE line.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labelled instance inside a family. Exactly one of the
// value sources is set, matching the family's kind.
type series struct {
	labels []Label
	fn     func() float64
	hist   *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds metric families and renders them for scraping.
// Construct with NewRegistry; all methods are safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	// dpvet:guardedby mu
	families map[string]*family
	// dpvet:guardedby mu
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a series under name, creating the family on first use.
// Registering the same name with a different kind panics: that is a
// programming error, caught at construction time, never at scrape time.
func (r *Registry) register(name, help string, k kind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, k))
	}
	f.series = append(f.series, s)
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the fit for occupancy read off another subsystem (engine queue
// depth, admitted worker count, journal size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: labels, fn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time
// from an existing monotonic source — the fit for subsystems that
// already keep their own atomic counters (dispatch accounting, WAL
// appends) and should not maintain a second copy.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: labels, fn: func() float64 { return float64(fn()) }})
}

// DefBuckets is the default latency histogram layout: 1ms to 2m,
// roughly logarithmic — wide enough for both sub-millisecond cache
// hits and multi-second fleet-sharded batches.
var DefBuckets = []time.Duration{
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
	30 * time.Second, time.Minute, 2 * time.Minute,
}

// RTTBuckets is a tighter layout for heartbeat round trips: 100µs to 1s.
var RTTBuckets = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second,
}

// Histogram accumulates duration observations into fixed buckets.
// Observe is atomic-only: one bounded scan over the bucket bounds plus
// two atomic adds.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Int64    // nanoseconds
}

// Histogram registers and returns a histogram series over the given
// ascending bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := make([]time.Duration, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s buckets are not ascending", name))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, kindHistogram, &series{labels: labels, hist: h})
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Handler returns the scrape endpoint: the registry rendered in
// Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.Write(&b)
		_, _ = io.WriteString(w, b.String())
	})
}

// Write renders every family in registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			writeSeries(w, f, s)
		}
	}
}

func writeSeries(w io.Writer, f *family, s *series) {
	switch {
	case s.fn != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(s.labels), formatFloat(s.fn()))
	case s.hist != nil:
		h := s.hist
		// Snapshot the bucket counts once so the cumulative view is
		// monotone even while observations land mid-scrape.
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		var cum uint64
		for i, bound := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(append(append([]Label{}, s.labels...), Label{"le", formatFloat(bound.Seconds())})), cum)
		}
		cum += counts[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(append(append([]Label{}, s.labels...), Label{"le", "+Inf"})), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(s.labels),
			formatFloat(time.Duration(h.sum.Load()).Seconds()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(s.labels), cum)
	}
}

// labelString renders {a="x",b="y"}, or "" for an unlabelled series.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		// %q escapes backslash, quote and newline exactly as the text
		// format requires.
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
