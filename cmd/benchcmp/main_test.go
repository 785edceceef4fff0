package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Fake CPU @ 2.00GHz
BenchmarkCoreFillWide-4          	       5	   1000000 ns/op	  512 B/op	       3 allocs/op
BenchmarkCoreFillWide-4          	       5	   1200000 ns/op	  512 B/op	       3 allocs/op
BenchmarkCoreFillWide-4          	       5	   1100000 ns/op	  512 B/op	       3 allocs/op
BenchmarkCoreMapPacked-4         	       5	    200000 ns/op
PASS
ok  	repro/internal/core	1.2s
pkg: repro/internal/bcp
BenchmarkBCPLowerBound-4         	       5	     50000 ns/op	       12.5 colors
BenchmarkBCPLowerBound-4         	       5	     70000 ns/op	       12.5 colors
PASS
ok  	repro/internal/bcp	0.4s
`

func TestParseBenchOutput(t *testing.T) {
	benches, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	fill := benches[0]
	if fill.Name != "BenchmarkCoreFillWide" || fill.Pkg != "repro/internal/core" {
		t.Fatalf("first benchmark = %q in %q, want the GOMAXPROCS suffix stripped and the pkg header applied", fill.Name, fill.Pkg)
	}
	if len(fill.NsPerOp) != 3 || fill.MedianNs != 1100000 {
		t.Fatalf("fill samples %v median %v, want 3 samples with median 1100000", fill.NsPerOp, fill.MedianNs)
	}
	lb := benches[2]
	if lb.Pkg != "repro/internal/bcp" || lb.MedianNs != 60000 {
		t.Fatalf("lower-bound benchmark = %+v, want pkg repro/internal/bcp and even-count median 60000", lb)
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	benches, err := ParseBenchOutput(strings.NewReader("PASS\nok  \trepro\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 0 {
		t.Fatalf("parsed %d benchmarks from benchless output", len(benches))
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// writeTrajectory writes a trajectory point whose benchmarks all live
// in one package, with the given name → median ns/op pairs. Medians
// are left 0 in the file so load's recompute-from-samples path runs.
func writeTrajectory(t *testing.T, path string, medians map[string]float64) {
	t.Helper()
	f := &File{Format: 2, Go: "gotest"}
	names := make([]string, 0, len(medians))
	for name := range medians {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Name: name, Pkg: "repro/x", NsPerOp: []float64{medians[name]},
		})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	writeTrajectory(t, oldP, map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 2000})

	run := func(medians map[string]float64, threshold float64, allowMissing bool) error {
		newP := filepath.Join(dir, "new.json")
		writeTrajectory(t, newP, medians)
		return runCompare(oldP, newP, threshold, allowMissing)
	}

	// A speedup passes.
	if err := run(map[string]float64{"BenchmarkA": 500, "BenchmarkB": 1000}, 15, false); err != nil {
		t.Fatalf("speedup failed the gate: %v", err)
	}
	// A regression inside the threshold passes.
	if err := run(map[string]float64{"BenchmarkA": 1100, "BenchmarkB": 2100}, 15, false); err != nil {
		t.Fatalf("sub-threshold regression failed the gate: %v", err)
	}
	// A geomean regression beyond the threshold fails.
	err := run(map[string]float64{"BenchmarkA": 1500, "BenchmarkB": 3000}, 15, false)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("40%% regression passed the gate (err = %v)", err)
	}
	// A fast outlier cannot mask a slow one past the geomean.
	err = run(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 40000}, 15, false)
	if err == nil {
		t.Fatal("geomean regression hidden by one outlier passed the gate")
	}
	// A benchmark that vanished is an error (the rot guard)...
	err = run(map[string]float64{"BenchmarkA": 1000}, 15, false)
	if err == nil || !strings.Contains(err.Error(), "no longer run") {
		t.Fatalf("missing benchmark not reported (err = %v)", err)
	}
	// ...unless explicitly allowed.
	if err := run(map[string]float64{"BenchmarkA": 1000}, 15, true); err != nil {
		t.Fatalf("-allow-missing still failed: %v", err)
	}
	// A brand-new benchmark is fine.
	if err := run(map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 2000, "BenchmarkC": 9}, 15, false); err != nil {
		t.Fatalf("added benchmark failed the gate: %v", err)
	}
	// Nothing in common is an error, not a vacuous pass.
	err = run(map[string]float64{"BenchmarkZ": 1}, 15, true)
	if err == nil || !strings.Contains(err.Error(), "in common") {
		t.Fatalf("disjoint trajectories compared cleanly (err = %v)", err)
	}
}

func TestParseBenchOutputBenchmem(t *testing.T) {
	benches, procs, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if procs != 4 {
		t.Fatalf("GOMAXPROCS %d, want 4 from the -4 name suffix", procs)
	}
	fill, mapped, lb := benches[0], benches[1], benches[2]
	if len(fill.BytesPerOp) != 3 || fill.BytesPerOp[0] != 512 || len(fill.AllocsPerOp) != 3 || fill.AllocsPerOp[2] != 3 {
		t.Fatalf("-benchmem columns lost: %+v", fill)
	}
	if mapped.BytesPerOp != nil || mapped.AllocsPerOp != nil || lb.BytesPerOp != nil {
		t.Fatalf("B/op or allocs/op invented for lines without them: %+v %+v", mapped, lb)
	}
	if _, procs, _ := parseBench(strings.NewReader("BenchmarkOne \t 5\t 10 ns/op\n")); procs != 1 {
		t.Fatalf("GOMAXPROCS %d without a name suffix, want 1", procs)
	}
}

// TestCompareReadsFormats2And3: compare loads a format-2 point (no
// machine fields, no B/op) against a format-3 one in either order, and
// gates on median ns/op alone, as it always has.
func TestCompareReadsFormats2And3(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.json")
	if err := os.WriteFile(v2, []byte(`{"format":2,"generated":"2026-01-01","go":"go1.24.0","note":"2 CPUs",
		"benchmarks":[{"name":"BenchmarkA","pkg":"repro/x","ns_per_op":[900,1000,1100],"median_ns":1000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	v3 := func(ns float64) string {
		p := filepath.Join(dir, "v3.json")
		f := &File{Format: 3, Go: "go1.24.0", CPUs: 2, GOMAXPROCS: 2, Benchmarks: []Benchmark{{
			Name: "BenchmarkA", Pkg: "repro/x", NsPerOp: []float64{ns}, MedianNs: ns,
			BytesPerOp: []float64{1 << 30}, AllocsPerOp: []float64{1e6},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := runCompare(v2, v3(1100), 15, false); err != nil {
		t.Fatalf("10%% ns/op slowdown failed the 15%% gate (B/op must not count): %v", err)
	}
	if err := runCompare(v2, v3(1200), 15, false); err == nil {
		t.Fatal("20% ns/op slowdown from a format-2 point passed the 15% gate")
	}
	if err := runCompare(v3(1000), v2, 15, false); err != nil {
		t.Fatalf("format-2 point compared against format-3 failed: %v", err)
	}
	f, err := load(v3(1000))
	if err != nil {
		t.Fatal(err)
	}
	if f.Format != 3 || f.CPUs != 2 || f.GOMAXPROCS != 2 || f.Benchmarks[0].AllocsPerOp[0] != 1e6 {
		t.Fatalf("format-3 fields lost on load: %+v", f)
	}
}
