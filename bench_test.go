package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VII), plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the core algorithm.
//
// Each table/figure bench measures the cost of regenerating that
// artifact on the loaded suite and, on the first iteration, prints the
// artifact itself (so `go test -bench .` doubles as the reproduction
// run; cmd/experiments renders the same artifacts standalone).
//
// In -short mode (and by default) the suite uses the scaled profiles of
// exp.DefaultConfig; `go test -bench . -benchtime 1x -timeout 2h` with
// cmd/experiments -full regenerates the profile-exact variant.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/bcp"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fill"
	"repro/internal/order"
)

var (
	suiteOnce sync.Once
	suiteVal  *exp.Suite
	suiteErr  error
)

// benchCircuits is the suite the benches run on: everything in scaled
// mode; kept moderate so the full bench run stays in CI budgets.
var benchCircuits = []string{
	"b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10",
	"b11", "b12", "b13", "b14",
}

func suite(b *testing.B) *exp.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := exp.DefaultConfig()
		cfg.Circuits = benchCircuits
		suiteVal, suiteErr = exp.Load(cfg)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// printOnce renders an artifact on the first benchmark iteration only.
func printOnce(b *testing.B, i int, render func()) {
	if i == 0 && !testing.Short() {
		render()
	}
}

func BenchmarkTableI(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.TableI()
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Table I: cube statistics ==")
			if err := exp.RenderTableI(os.Stderr, rows); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if r.XStatPeak != 3 || r.DPPeak != 2 {
			b.Fatalf("Fig1 shape broken: %d vs %d", r.XStatPeak, r.DPPeak)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Fig 1: X-Stat vs Optimum-Fill ==")
			if err := exp.RenderFig1(os.Stderr, r); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchPeakTable(b *testing.B, name string, run func(*exp.Suite) ([]exp.PeakRow, error)) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintf(os.Stderr, "\n== %s ==\n", name)
			ord := map[string]string{
				"Table II":  "Tool",
				"Table III": "X-Stat",
				"Table IV":  "I-Order",
			}[name]
			if err := exp.RenderPeakTable(os.Stderr, ord, rows); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTableII(b *testing.B) {
	benchPeakTable(b, "Table II", (*exp.Suite).TableII)
}

func BenchmarkTableIII(b *testing.B) {
	benchPeakTable(b, "Table III", (*exp.Suite).TableIII)
}

func BenchmarkTableIV(b *testing.B) {
	benchPeakTable(b, "Table IV", (*exp.Suite).TableIV)
}

func BenchmarkTableV(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.TableV()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Table V: peak input toggles vs prior art ==")
			if err := exp.RenderCompareTable(os.Stderr, rows, true, exp.PaperTableV); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTableVI(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.TableVI()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Table VI: peak circuit power (µW) vs prior art ==")
			if err := exp.RenderCompareTable(os.Stderr, rows, false, exp.PaperTableVI); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig2a(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := s.Fig2a()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Fig 2(a): I-Ordering iteration trajectories ==")
			if err := exp.RenderFig2a(os.Stderr, series); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig2b(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.Fig2b()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Fig 2(b): iterations vs log2(n) ==")
			if err := exp.RenderFig2b(os.Stderr, points); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig2c(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Fig2c()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			fmt.Fprintln(os.Stderr, "\n== Fig 2(c): don't-care stretch statistics ==")
			if err := exp.RenderFig2c(os.Stderr, r); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationUnitIntervals quantifies why the BCP mapping must
// fold forced toggles in as unit intervals: solving without them
// reports an optimistic bottleneck that the real fill cannot achieve.
func BenchmarkAblationUnitIntervals(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	s := randomCubeSet(r, 64, 96, 0.6)
	b.ResetTimer()
	gap := 0
	for i := 0; i < b.N; i++ {
		all := toggleIntervals(s)
		var wide []bcp.Interval
		for _, iv := range all {
			if iv.End > iv.Start {
				wide = append(wide, iv)
			}
		}
		full, err := bcp.NewInstance(s.Len()-1, all)
		if err != nil {
			b.Fatal(err)
		}
		ablated, err := bcp.NewInstance(s.Len()-1, wide)
		if err != nil {
			b.Fatal(err)
		}
		gap = full.LowerBound() - ablated.LowerBound()
	}
	b.ReportMetric(float64(gap), "toggles_underestimated")
}

// toggleIntervals is the per-trit interval list of the §V-C reduction:
// for each pin, the BCP interval [p, q-1] of every two consecutive care
// bits at columns p < q with different values, forced unit toggles
// (q = p+1) included.
func toggleIntervals(s *cube.Set) []bcp.Interval {
	var ivs []bcp.Interval
	for pin := 0; pin < s.Width; pin++ {
		last := -1
		for j, c := range s.Cubes {
			if !c[pin].IsCare() {
				continue
			}
			if last >= 0 && s.Cubes[last][pin] != c[pin] {
				ivs = append(ivs, bcp.Interval{Start: last, End: j - 1})
			}
			last = j
		}
	}
	return ivs
}

// BenchmarkAblationInterleave isolates Algorithm 3's interleaving step:
// the DP-fill bottleneck under plain X-count sorting versus the full
// I-Ordering search.
func BenchmarkAblationInterleave(b *testing.B) {
	s := suite(b)
	d := s.Data[len(s.Data)-1] // largest bench circuit
	b.ResetTimer()
	var sorted, interleaved int
	for i := 0; i < b.N; i++ {
		// Plain sort by X count (ascending), no interleaving.
		perm := order.Identity(d.Cubes.Len())
		sortByX(d.Cubes, perm)
		var err error
		sorted, err = core.Bottleneck(d.Cubes.Reorder(perm))
		if err != nil {
			b.Fatal(err)
		}
		iperm, err := order.Interleaved().Order(d.Cubes)
		if err != nil {
			b.Fatal(err)
		}
		interleaved, err = core.Bottleneck(d.Cubes.Reorder(iperm))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sorted), "sorted_peak")
	b.ReportMetric(float64(interleaved), "interleaved_peak")
}

// BenchmarkAblationPhase1 quantifies Fig. 1 systematically: the average
// gap between X-Stat's greedy phase-1 commitment and the DP optimum
// over random stretch-rich cube sets.
func BenchmarkAblationPhase1(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	sets := make([]*cube.Set, 16)
	for i := range sets {
		sets[i] = randomCubeSet(r, 48, 64, 0.7)
	}
	b.ResetTimer()
	totalGap := 0
	for i := 0; i < b.N; i++ {
		totalGap = 0
		for _, s := range sets {
			xs, err := fill.XStat().Fill(cube.Pack(s), nil)
			if err != nil {
				b.Fatal(err)
			}
			opt, err := core.Bottleneck(s)
			if err != nil {
				b.Fatal(err)
			}
			totalGap += xs.Peak - opt
		}
	}
	b.ReportMetric(float64(totalGap)/float64(len(sets)), "avg_gap_vs_optimal")
}

// --- Micro-benchmarks of the core algorithm ---

func BenchmarkDPFillSmall(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	s := randomCubeSet(r, 64, 100, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FillWith(s, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPFillWide(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	s := randomCubeSet(r, 2000, 400, 0.85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FillWith(s, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOrdering(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	s := randomCubeSet(r, 256, 200, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := order.Interleaved().Order(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch engine benchmarks ---
//
// BenchmarkEngine* prove the two parallelism layers: the batch engine
// beats a serial loop over the same jobs at 4+ workers, and the sharded
// core.FillWith scan beats the single-shard scan on wide sets — with output
// byte-identical to the serial path in both cases (verified once per
// benchmark run).

// engineBenchJobs builds a fixed batch of DP-fill jobs heavy enough for
// scheduling overhead to be negligible.
func engineBenchJobs() []engine.Job {
	r := rand.New(rand.NewSource(23))
	jobs := make([]engine.Job, 16)
	for i := range jobs {
		jobs[i] = engine.Job{
			Name:   fmt.Sprintf("set%d", i),
			Set:    randomCubeSet(r, 256, 160, 0.75),
			Filler: fill.DP(),
		}
	}
	return jobs
}

var engineGold sync.Once

// verifyEngineGold pins the engine's parallel output to the serial
// reference once per test binary run.
func verifyEngineGold(b *testing.B, jobs []engine.Job) {
	b.Helper()
	engineGold.Do(func() {
		serial := engine.New(1).Run(context.Background(), jobs)
		parallel := engine.New(4).Run(context.Background(), jobs)
		for i := range jobs {
			if serial[i].Err != nil || parallel[i].Err != nil {
				b.Fatalf("gold run failed: %v / %v", serial[i].Err, parallel[i].Err)
			}
			if !slices.Equal(serial[i].Filled.Strings(), parallel[i].Filled.Strings()) {
				b.Fatalf("job %d: parallel batch output differs from serial", i)
			}
		}
	})
}

func benchEngine(b *testing.B, workers int) {
	jobs := engineBenchJobs()
	verifyEngineGold(b, jobs)
	e := engine.New(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(context.Background(), jobs)
		if err := engine.FirstErr(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBatchSerial(b *testing.B)   { benchEngine(b, 1) }
func BenchmarkEngineBatchWorkers4(b *testing.B) { benchEngine(b, 4) }
func BenchmarkEngineBatchMachine(b *testing.B)  { benchEngine(b, 0) }

// shardBenchSet is wide enough (row-dominated) for the sharded stretch
// scan to matter.
func shardBenchSet() *cube.Set {
	r := rand.New(rand.NewSource(29))
	return randomCubeSet(r, 6000, 500, 0.9)
}

var shardGold sync.Once

func verifyShardGold(b *testing.B, s *cube.Set) {
	b.Helper()
	shardGold.Do(func() {
		serial, sres, err := core.FillWith(s, core.Options{Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		sharded, pres, err := core.FillWith(s, core.Options{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if serial.String() != sharded.String() {
			b.Fatal("sharded Fill output differs from serial")
		}
		if sres.Peak != pres.Peak {
			b.Fatalf("sharded peak %d != serial peak %d", pres.Peak, sres.Peak)
		}
	})
}

func benchShardedFill(b *testing.B, shards int) {
	s := shardBenchSet()
	verifyShardGold(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FillWith(s, core.Options{Shards: shards}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineShardedFillSerial(b *testing.B)   { benchShardedFill(b, 1) }
func BenchmarkEngineShardedFillWorkers4(b *testing.B) { benchShardedFill(b, 4) }

func randomCubeSet(r *rand.Rand, width, n int, xProb float64) *cube.Set {
	s := cube.NewSet(width)
	for v := 0; v < n; v++ {
		c := make(cube.Cube, width)
		for i := range c {
			switch {
			case r.Float64() < xProb:
				c[i] = cube.X
			case r.Intn(2) == 0:
				c[i] = cube.Zero
			default:
				c[i] = cube.One
			}
		}
		s.Append(c)
	}
	return s
}

func sortByX(s *cube.Set, perm []int) {
	// Insertion sort on X count keeps this self-contained.
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && s.Cubes[perm[j]].XCount() < s.Cubes[perm[j-1]].XCount(); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
}
