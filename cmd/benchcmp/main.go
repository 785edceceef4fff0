// Command benchcmp records and compares benchmark trajectories.
//
// The repository tracks fill hot-path performance as a sequence of
// BENCH_*.json files (one per PR that touched the hot path), each
// holding multi-iteration `go test -bench` results. benchcmp has two
// modes:
//
// Record: parse `go test -bench` output into a trajectory point.
//
//	go test -short -run '^$' -bench . -benchtime 5x -count 6 -benchmem \
//	    . ./internal/core ./internal/bcp ./internal/logicsim |
//	  go run ./cmd/benchcmp -record -out BENCH_pr7.json -note "PR 7"
//
// Compare: diff two trajectory points and gate on the geomean.
//
//	go run ./cmd/benchcmp -old BENCH_pr6.json -new BENCH_ci.json -threshold 15
//
// Compare matches benchmarks by (package, name), takes the median
// ns/op of each side's iterations (so one noisy run cannot swing the
// verdict), prints a benchstat-style table, and exits non-zero when
// the geomean of new/old ratios regresses by more than the threshold
// percentage. A benchmark recorded in -old that no longer runs in -new
// is an error (the rot guard): renames must refresh the trajectory
// file on purpose, never silently.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// File is one trajectory point: every benchmark of one recorded run.
// Format 3 adds the machine (CPUs, GOMAXPROCS) and, from `-benchmem`
// output, B/op and allocs/op samples; format-2 files load unchanged,
// with those fields zero.
type File struct {
	Format    int    `json:"format"`
	Generated string `json:"generated"`
	Go        string `json:"go"`
	// CPUs is the recording machine's logical CPU count; GOMAXPROCS is
	// the benchmarks' own, read from their name suffix.
	CPUs       int         `json:"cpus,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchtime  string      `json:"benchtime,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark holds every recorded iteration of one benchmark, so the
// file stays benchstat-comparable: NsPerOp lists the per-`-count`
// ns/op samples in run order and MedianNs summarizes them. BytesPerOp
// and AllocsPerOp are the B/op and allocs/op samples, in the same
// order, when the run reported them.
type Benchmark struct {
	Name        string    `json:"name"`
	Pkg         string    `json:"pkg"`
	NsPerOp     []float64 `json:"ns_per_op"`
	MedianNs    float64   `json:"median_ns"`
	BytesPerOp  []float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp []float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	var (
		record    = flag.Bool("record", false, "parse `go test -bench` output (stdin or file args) into a trajectory JSON")
		out       = flag.String("out", "", "record mode: output file (default stdout)")
		note      = flag.String("note", "", "record mode: free-form note stored in the file")
		benchtime = flag.String("benchtime", "", "record mode: benchtime the run used, stored in the file")
		oldPath   = flag.String("old", "", "compare mode: previous trajectory point")
		newPath   = flag.String("new", "", "compare mode: current trajectory point")
		threshold = flag.Float64("threshold", 15, "compare mode: fail when the geomean regresses by more than this percent")
		allowMiss = flag.Bool("allow-missing", false, "compare mode: tolerate benchmarks that exist only in -old")
	)
	flag.Parse()

	var err error
	switch {
	case *record:
		err = runRecord(flag.Args(), *out, *note, *benchtime)
	case *oldPath != "" && *newPath != "":
		err = runCompare(*oldPath, *newPath, *threshold, *allowMiss)
	default:
		err = errors.New("usage: benchcmp -record [-out FILE] [bench.out...]  |  benchcmp -old A.json -new B.json [-threshold PCT]")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func runRecord(args []string, out, note, benchtime string) error {
	var readers []io.Reader
	if len(args) == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, a := range args {
		f, err := os.Open(a)
		if err != nil {
			return err
		}
		defer f.Close()
		readers = append(readers, f)
	}
	benches, procs, err := parseBench(io.MultiReader(readers...))
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}
	file := &File{
		Format:     3,
		Generated:  time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: procs,
		Benchtime:  benchtime,
		Note:       note,
		Benchmarks: benches,
	}
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// gomaxprocsSuffix is the "-N" GOMAXPROCS suffix go test appends to
// benchmark names when N > 1. It is stripped, so trajectory points
// recorded on different core counts still match by name, and recorded
// as the file's GOMAXPROCS.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// benchLine matches one result line: name, iteration count, then
// value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// ParseBenchOutput extracts per-benchmark samples from the text output
// of `go test -bench`: ns/op always, and B/op and allocs/op when the
// `-benchmem` columns are present. Samples of the same benchmark (from
// -count > 1) accumulate in run order; the current `pkg:` header line
// attributes each result to its package.
func ParseBenchOutput(r io.Reader) ([]Benchmark, error) {
	benches, _, err := parseBench(r)
	return benches, err
}

// parseBench is ParseBenchOutput that also reports the GOMAXPROCS the
// benchmarks ran under: the name suffix of the last result line, 1
// when there is none.
func parseBench(r io.Reader) ([]Benchmark, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	pkg := ""
	procs := 1
	index := map[string]int{}
	var benches []Benchmark
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		units := values(m[3])
		ns, ok := units["ns/op"]
		if !ok {
			continue
		}
		name := m[1]
		if p := gomaxprocsSuffix.FindStringSubmatch(name); p != nil {
			procs, _ = strconv.Atoi(p[1])
			name = strings.TrimSuffix(name, p[0])
		} else {
			procs = 1
		}
		key := pkg + "." + name
		i, seen := index[key]
		if !seen {
			i = len(benches)
			index[key] = i
			benches = append(benches, Benchmark{Name: name, Pkg: pkg})
		}
		b := &benches[i]
		b.NsPerOp = append(b.NsPerOp, ns)
		if v, ok := units["B/op"]; ok {
			b.BytesPerOp = append(b.BytesPerOp, v)
		}
		if v, ok := units["allocs/op"]; ok {
			b.AllocsPerOp = append(b.AllocsPerOp, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	for i := range benches {
		benches[i].MedianNs = median(benches[i].NsPerOp)
	}
	return benches, procs, nil
}

// values maps each unit of a result line's value/unit pairs (ns/op,
// B/op, allocs/op, MB/s, custom ReportMetric units) to its value;
// pairs whose value does not parse are left out.
func values(fields string) map[string]float64 {
	f := strings.Fields(fields)
	out := make(map[string]float64, len(f)/2)
	for i := 0; i+1 < len(f); i += 2 {
		if v, err := strconv.ParseFloat(f[i], 64); err == nil {
			out[f[i+1]] = v
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Tolerate hand-refreshed files that omitted the median.
	for i := range f.Benchmarks {
		if f.Benchmarks[i].MedianNs == 0 {
			f.Benchmarks[i].MedianNs = median(f.Benchmarks[i].NsPerOp)
		}
	}
	return &f, nil
}

func runCompare(oldPath, newPath string, thresholdPct float64, allowMissing bool) error {
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	newIdx := map[string]Benchmark{}
	for _, b := range newF.Benchmarks {
		newIdx[b.Pkg+"."+b.Name] = b
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-44s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var missing []string
	logRatios := 0.0
	matched := 0
	for _, ob := range oldF.Benchmarks {
		key := ob.Pkg + "." + ob.Name
		nb, ok := newIdx[key]
		if !ok {
			missing = append(missing, key)
			continue
		}
		delete(newIdx, key)
		if ob.MedianNs <= 0 || nb.MedianNs <= 0 {
			continue
		}
		ratio := nb.MedianNs / ob.MedianNs
		logRatios += math.Log(ratio)
		matched++
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %8.1f%%\n",
			ob.Name, ob.MedianNs, nb.MedianNs, (ratio-1)*100)
	}
	var added []string
	for key := range newIdx {
		added = append(added, key)
	}
	sort.Strings(added)
	for _, key := range added {
		fmt.Fprintf(w, "%-44s %14s %14.0f\n", key, "(new)", newIdx[key].MedianNs)
	}
	if matched == 0 {
		w.Flush()
		return fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	geomean := math.Exp(logRatios / float64(matched))
	speedup := 1 / geomean
	fmt.Fprintf(w, "\ngeomean (new/old) over %d benchmarks: %.3f  (%.2fx %s)\n",
		matched, geomean, speedup, map[bool]string{true: "speedup", false: "slowdown"}[speedup >= 1])
	w.Flush()

	if len(missing) > 0 {
		msg := fmt.Sprintf("%d benchmark(s) in %s no longer run: %s (rename/removal must refresh the trajectory file)",
			len(missing), oldPath, strings.Join(missing, ", "))
		if !allowMissing {
			return errors.New(msg)
		}
		fmt.Fprintln(os.Stderr, "benchcmp: warning:", msg)
	}
	if limit := 1 + thresholdPct/100; geomean > limit {
		return fmt.Errorf("geomean regression %.1f%% exceeds the %.0f%% threshold",
			(geomean-1)*100, thresholdPct)
	}
	return nil
}
