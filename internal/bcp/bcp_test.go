package bcp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustInstance(t *testing.T, numColors int, ivs ...Interval) *Instance {
	t.Helper()
	inst, err := NewInstance(numColors, ivs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(-1, nil); err == nil {
		t.Error("negative color count accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: 2, End: 1}}); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: 0, End: 3}}); err == nil {
		t.Error("out-of-range interval accepted")
	}
	if _, err := NewInstance(3, []Interval{{Start: -1, End: 1}}); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewInstance(0, nil); err != nil {
		t.Error("empty instance rejected")
	}
	// The kernel stores Ends and indices as int32 and keeps MaxInt32
	// as the heap's sentinel End.
	if _, err := NewInstance(math.MaxInt32, nil); err == nil {
		t.Error("color count beyond the int32 kernel accepted")
	}
	if _, err := NewInstance(math.MaxInt32-1, nil); err != nil {
		t.Errorf("largest kernel color count rejected: %v", err)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: 2, End: 4}
	for c, want := range map[int]bool{1: false, 2: true, 3: true, 4: true, 5: false} {
		if iv.Contains(c) != want {
			t.Errorf("Contains(%d) = %v", c, !want)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if lb := mustInstance(t, 5).LowerBound(); lb != 0 {
		t.Fatalf("LB of empty = %d", lb)
	}
}

func TestLowerBoundSingletons(t *testing.T) {
	// Three unit intervals on the same color: LB must be 3.
	inst := mustInstance(t, 4, Interval{1, 1}, Interval{1, 1}, Interval{1, 1})
	if lb := inst.LowerBound(); lb != 3 {
		t.Fatalf("LB = %d, want 3", lb)
	}
}

func TestLowerBoundSpread(t *testing.T) {
	// Three intervals over 3 colors, all [0,2]: perfectly spreadable.
	inst := mustInstance(t, 3, Interval{0, 2}, Interval{0, 2}, Interval{0, 2})
	if lb := inst.LowerBound(); lb != 1 {
		t.Fatalf("LB = %d, want 1", lb)
	}
}

func TestLowerBoundCeiling(t *testing.T) {
	// Four intervals confined to a window of 3 colors: ceil(4/3) = 2.
	inst := mustInstance(t, 5,
		Interval{1, 3}, Interval{1, 3}, Interval{1, 3}, Interval{1, 3})
	if lb := inst.LowerBound(); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestLowerBoundMixedWindows(t *testing.T) {
	// The binding window is [2,3] with 3 intervals: ceil(3/2) = 2,
	// even though the global density is lower.
	inst := mustInstance(t, 6,
		Interval{0, 5},
		Interval{2, 3}, Interval{2, 3}, Interval{2, 2},
	)
	if lb := inst.LowerBound(); lb != 2 {
		t.Fatalf("LB = %d, want 2", lb)
	}
}

func TestAssignRejectsBadCapacity(t *testing.T) {
	inst := mustInstance(t, 3, Interval{0, 1})
	if _, err := inst.Assign(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	// Capacity 1 with two forced same-color intervals must fail loudly.
	inst2 := mustInstance(t, 2, Interval{0, 0}, Interval{0, 0})
	if _, err := inst2.Assign(1); err == nil {
		t.Error("infeasible capacity accepted")
	}
}

func TestAssignEmptyInstance(t *testing.T) {
	inst := mustInstance(t, 0)
	colors, err := inst.Assign(1)
	if err != nil || colors != nil {
		t.Fatalf("empty assign: %v %v", colors, err)
	}
}

func TestSolveKnownOptimum(t *testing.T) {
	// Fig.-1-like scenario: overlapping stretches where greedy-by-middle
	// would collide but spreading achieves 1 per color.
	inst := mustInstance(t, 3,
		Interval{0, 2}, Interval{0, 1}, Interval{1, 2})
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bottleneck != 1 || sol.LowerBound != 1 {
		t.Fatalf("bottleneck=%d lb=%d, want 1/1", sol.Bottleneck, sol.LowerBound)
	}
}

func TestSolveLegalColors(t *testing.T) {
	inst := mustInstance(t, 6,
		Interval{0, 0}, Interval{0, 5}, Interval{3, 4}, Interval{2, 2}, Interval{1, 4})
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sol.Colors {
		if !inst.Intervals[i].Contains(c) {
			t.Errorf("interval %d got color %d outside [%d,%d]",
				i, c, inst.Intervals[i].Start, inst.Intervals[i].End)
		}
	}
}

func TestCheckColoring(t *testing.T) {
	inst := mustInstance(t, 3, Interval{0, 1}, Interval{1, 2})
	if _, err := inst.CheckColoring([]int{0}); err == nil {
		t.Error("short coloring accepted")
	}
	if _, err := inst.CheckColoring([]int{2, 1}); err == nil {
		t.Error("out-of-interval color accepted")
	}
	bn, err := inst.CheckColoring([]int{1, 1})
	if err != nil || bn != 2 {
		t.Fatalf("bottleneck=%d err=%v", bn, err)
	}
}

func TestHistogram(t *testing.T) {
	inst := mustInstance(t, 4, Interval{0, 3}, Interval{0, 3}, Interval{2, 2})
	h := inst.Histogram([]int{0, 2, 2})
	want := []int{1, 0, 2, 0}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestBruteForceSmall(t *testing.T) {
	// {0,0} pins color 0, {1,1} pins color 1; {0,1} must double up on
	// one of them, so the optimum is 2.
	inst := mustInstance(t, 2, Interval{0, 0}, Interval{0, 1}, Interval{1, 1})
	if got := inst.BruteForce(); got != 2 {
		t.Fatalf("brute force = %d, want 2", got)
	}
	// Widening the middle interval's range to a third color drops the
	// optimum back to 1.
	inst2 := mustInstance(t, 3, Interval{0, 0}, Interval{0, 2}, Interval{1, 1})
	if got := inst2.BruteForce(); got != 1 {
		t.Fatalf("brute force = %d, want 1", got)
	}
}

func randomInstance(r *rand.Rand, maxColors, maxIntervals int) *Instance {
	c := 1 + r.Intn(maxColors)
	k := r.Intn(maxIntervals + 1)
	ivs := make([]Interval, k)
	for i := range ivs {
		s := r.Intn(c)
		e := s + r.Intn(c-s)
		ivs[i] = Interval{Start: s, End: e}
	}
	return &Instance{NumColors: c, Intervals: ivs}
}

// TestPropertyGreedyMatchesBruteForce is the optimality theorem check:
// on random small instances the LB/greedy pair must equal the exhaustive
// optimum exactly.
func TestPropertyGreedyMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 6, 9)
		sol, err := inst.Solve()
		if err != nil {
			return false
		}
		return sol.Bottleneck == inst.BruteForce()
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySolveAlwaysMeetsLowerBound checks bottleneck == LB on
// larger random instances where brute force is infeasible.
func TestPropertySolveAlwaysMeetsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 60, 300)
		sol, err := inst.Solve()
		if err != nil {
			return false
		}
		if sol.Bottleneck != sol.LowerBound {
			return false
		}
		// And the coloring must be legal.
		_, err = inst.CheckColoring(sol.Colors)
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyLowerBoundIsABound: no legal coloring (here: a random one)
// can beat the lower bound.
func TestPropertyLowerBoundIsABound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 8, 10)
		lb := inst.LowerBound()
		// Random legal coloring.
		colors := make([]int, len(inst.Intervals))
		for i, iv := range inst.Intervals {
			colors[i] = iv.Start + r.Intn(iv.End-iv.Start+1)
		}
		bn, err := inst.CheckColoring(colors)
		return err == nil && bn >= lb
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkBCPLowerBound(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomInstance(r, 500, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.LowerBound()
	}
}

func BenchmarkBCPAssign(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomInstance(r, 500, 20000)
	lb := inst.LowerBound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Assign(lb); err != nil {
			b.Fatal(err)
		}
	}
}

// coldShapeInstance builds the BCP instance DP-fill solves for one
// fill-cold-shaped request in its given order: m pins × n cubes at a
// mean X fraction x with skewed per-cube care, as core's benchmarks
// draw them. Each pin contributes one interval [a, b-1] per pair of
// consecutive care bits at cubes a < b with different values, over the
// n-1 boundaries between cubes.
func coldShapeInstance(r *rand.Rand, m, n int, x float64) *Instance {
	lastCol := make([]int, m)
	lastVal := make([]int8, m) // 0 = no care bit yet, else ±1
	inst := &Instance{NumColors: n - 1}
	for col := range n {
		care := math.Min((1-x)*r.ExpFloat64(), 0.95)
		for p := range m {
			u := r.Float64()
			if u >= care {
				continue
			}
			v := int8(1)
			if u < care/2 {
				v = -1
			}
			if lastVal[p] != 0 && lastVal[p] != v {
				inst.Intervals = append(inst.Intervals, Interval{Start: lastCol[p], End: col - 1})
			}
			lastCol[p], lastVal[p] = col, v
		}
	}
	return inst
}

// BenchmarkBCPColdShapeBound runs Algorithm 1 on the instance of one
// fill-cold-shaped request, 768 pins × 1250 cubes at 85% X, where
// intervals are skewed across colors rather than uniform.
func BenchmarkBCPColdShapeBound(b *testing.B) {
	inst := coldShapeInstance(rand.New(rand.NewSource(1250)), 768, 1250, 0.85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.LowerBound()
	}
}

// BenchmarkBCPColdShapeAssign runs Algorithm 2 at the bound on the
// same fill-cold-shaped instance.
func BenchmarkBCPColdShapeAssign(b *testing.B) {
	inst := coldShapeInstance(rand.New(rand.NewSource(1250)), 768, 1250, 0.85)
	lb := inst.LowerBound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Assign(lb); err != nil {
			b.Fatal(err)
		}
	}
}
