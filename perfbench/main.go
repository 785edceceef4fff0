// Command perfbench is the repository's benchmark. It stands the
// serving stack up in-process on loopback — one dpfilld, or a
// coordinator fronting two dpfilld workers — and drives one named
// workload through internal/client from closed-loop clients, checks
// every answer, and prints the end-to-end metrics. With --trace 1 it
// instead replays a seeded sample of the workload with spans around
// each layer's public calls and prints the per-layer metrics.
//
//	perfbench --workload fill-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it print the same metrics as a table, plus the run
// metadata. run.sh builds and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRuns is how many times a run stands the stack up and warms it;
// setup_s is the median.
const setupRuns = 5

// watchdog bounds a whole run: a hung stack must not outlive the
// harness's 180-second limit.
const watchdog = 170 * time.Second

// outDir is where runs leave their full results and span files,
// relative to the working directory (the repository root).
const outDir = ".bench_build/perfbench"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta describes the run: machine, build, inputs and sample counts.
type meta struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      int       `json:"trace"`
	Clients    int       `json:"clients"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Sent       int       `json:"sent"`
	Succeeded  int       `json:"succeeded"`
	Failed     int       `json:"failed"`
	ErrorRate  float64   `json:"error_rate"`
	Samples    int       `json:"latency_samples"`
	BeyondP95  int       `json:"samples_beyond_p95"`
	SetupRuns  []float64 `json:"setup_runs_s,omitempty"`
	Failures   []string  `json:"first_failures,omitempty"`
	SpanFile   string    `json:"span_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fill-cold, fill-hot, pipeline or coord-batch")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "timed window length")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1")
		return 2
	}
	stop := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	defer stop.Stop()

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	m := meta{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		// One closed-loop client per CPU, at most nproc = 2: each holds one
		// connection and one request at a time.
		Clients: min(2, runtime.NumCPU()),
		NumCPU:  runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	ctx := context.Background()
	var res result
	var rows []metricRow
	if *trace == 1 {
		res, rows, err = traced(ctx, w, &m)
	} else {
		res, rows, err = timed(ctx, w, &m, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, m, res, rows); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// commit names the build's VCS revision when the toolchain stamped one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// metricRow is one reported metric.
type metricRow struct {
	name  string
	value float64
	unit  string
	note  string
}

// timed runs the end-to-end measurement: set-up (repeated), the timed
// closed-loop window, then the oracle over every reply.
func timed(ctx context.Context, w workload, m *meta, d time.Duration) (result, []metricRow, error) {
	var st *stack
	for range setupRuns {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = newStack(w.fleet(), m.Clients); err != nil {
			return result{}, nil, fmt.Errorf("standing up the stack: %w", err)
		}
		if err := w.warm(ctx, st, m.Clients); err != nil {
			st.close()
			return result{}, nil, fmt.Errorf("warm-up: %w", err)
		}
		m.SetupRuns = append(m.SetupRuns, time.Since(t0).Seconds())
	}
	var failures []error
	if h, ok := w.(*fillHot); ok {
		if err := h.checkWarm(); err != nil {
			failures = append(failures, fmt.Errorf("warm-up answer: %w", err))
		}
	}
	win := drive(ctx, w, st, m.Clients, d)
	rss, err := peakRSSMB()
	st.close()
	if err != nil {
		return result{}, nil, fmt.Errorf("reading peak RSS: %w", err)
	}

	var ok []reply
	for _, r := range win.replies {
		if r.err != nil {
			failures = append(failures, fmt.Errorf("request %d: %w", r.i, r.err))
		} else {
			ok = append(ok, r)
		}
	}
	failures = append(failures, w.verify(ctx, ok)...)

	var lats, peaks []float64
	for _, r := range ok {
		lats = append(lats, ms(r.lat))
		if r.i < peakSample[m.Workload] {
			for _, p := range r.peaks {
				peaks = append(peaks, float64(p))
			}
		}
	}
	sort.Float64s(lats)
	sent := len(win.replies)
	failed := min(len(failures), max(sent, 1))
	m.Sent, m.Succeeded, m.Failed = sent, len(ok), failed
	if sent > 0 {
		m.ErrorRate = float64(failed) / float64(sent)
	}
	m.Samples = len(lats)
	m.BeyondP95 = max(len(lats)-1-int(0.95*float64(len(lats)-1)), 0)
	for k, err := range failures {
		if k == 5 {
			break
		}
		m.Failures = append(m.Failures, err.Error())
	}
	n := float64(max(sent, 1))
	p95 := quantile(lats, 0.95)
	rows := []metricRow{
		{"setup_s", median(m.SetupRuns), "s", fmt.Sprintf("median of %d set-ups", len(m.SetupRuns))},
		{"throughput_rps", float64(len(ok)) / win.elapsed.Seconds(), "1/s", fmt.Sprintf("%d ok in %.2fs", len(ok), win.elapsed.Seconds())},
		{"latency_p50_ms", quantile(lats, 0.5), "ms", fmt.Sprintf("n=%d", len(lats))},
		{"latency_p95_ms", p95, "ms", fmt.Sprintf("n=%d, %d beyond", len(lats), m.BeyondP95)},
		{"cpu_ms_per_req", ms(win.used.cpu) / n, "ms", "user+system"},
		{"alloc_kb_per_req", float64(win.used.allocs) / 1024 / n, "KiB", "/gc/heap/allocs:bytes"},
		{"peak_rss_mb", rss, "MiB", "VmHWM"},
		{"peak_toggles_mean", mean(peaks), "toggles", fmt.Sprintf("over the %d fills of the first %d requests", len(peaks), peakSample[m.Workload])},
	}
	res := result{Correct: failed == 0, Attempted: max(sent, 1), Failed: failed, Metrics: map[string]metricValue{}}
	for _, r := range rows {
		res.Metrics[r.name] = metricValue{r.value, r.unit}
	}
	rows = append(rows, metricRow{"error_rate", m.ErrorRate, "ratio", fmt.Sprintf("%d of %d", failed, sent)})
	return res, rows, nil
}

// report prints the metric table and metadata, saves the full result
// under outDir, and prints the result line last.
func report(out io.Writer, m meta, res result, rows []metricRow) error {
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%d clients=%d cpus=%d gomaxprocs=%d %s commit=%s\n",
		m.Workload, m.Seed, m.Trace, m.Clients, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-28s %14.4f %-8s %s\n", r.name, r.value, r.unit, r.note)
	}
	for _, f := range m.Failures {
		fmt.Fprintln(out, "  failure:", f)
	}
	metaLine, err := json.Marshal(map[string]any{"meta": m})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", m.Workload, m.Seed, m.Trace))
	full, err := json.MarshalIndent(map[string]any{"meta": m, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n%s\n", metaLine, line)
	return nil
}
