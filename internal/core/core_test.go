package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
)

func mustFill(t *testing.T, s *cube.Set) (*cube.Set, *Result) {
	t.Helper()
	filled, res, err := FillWith(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return filled, res
}

func TestMapFullyXRow(t *testing.T) {
	s := cube.MustParseSet("X", "X", "X")
	mp := Map(s)
	if len(mp.Intervals) != 0 {
		t.Fatalf("intervals on all-X row: %+v", mp.Intervals)
	}
	if !mp.Prefilled.FullySpecified() {
		t.Fatal("all-X row not pre-filled")
	}
	if mp.Prefilled.PeakToggles() != 0 {
		t.Fatal("constant fill must not toggle")
	}
}

func TestMapEqualStretch(t *testing.T) {
	// Row (single pin across 4 vectors): 0 X X 0 -> all zeros.
	s := cube.MustParseSet("0", "X", "X", "0")
	mp := Map(s)
	if len(mp.Intervals) != 0 {
		t.Fatalf("equal stretch produced intervals: %+v", mp.Intervals)
	}
	for j, c := range mp.Prefilled.Cubes {
		if c[0] != cube.Zero {
			t.Fatalf("vector %d = %v, want 0", j, c[0])
		}
	}
}

func TestMapEdgeStretches(t *testing.T) {
	// Row: X X 1 X X -> all ones (leading and trailing copy).
	s := cube.MustParseSet("X", "X", "1", "X", "X")
	mp := Map(s)
	if len(mp.Intervals) != 0 {
		t.Fatalf("edge stretches produced intervals: %+v", mp.Intervals)
	}
	for j, c := range mp.Prefilled.Cubes {
		if c[0] != cube.One {
			t.Fatalf("vector %d = %v, want 1", j, c[0])
		}
	}
}

func TestMapUnequalStretch(t *testing.T) {
	// Row: 0 X X 1 -> one interval over cycles [0,2].
	s := cube.MustParseSet("0", "X", "X", "1")
	mp := Map(s)
	if len(mp.Intervals) != 1 {
		t.Fatalf("intervals = %+v", mp.Intervals)
	}
	ti := mp.Intervals[0]
	if ti.Row != 0 || ti.LeftCol != 0 || ti.RightCol != 3 || ti.LeftVal != cube.Zero {
		t.Fatalf("interval = %+v", ti)
	}
	iv := ti.Interval()
	if iv.Start != 0 || iv.End != 2 {
		t.Fatalf("BCP interval = %+v", iv)
	}
}

func TestMapForcedToggleIsUnitInterval(t *testing.T) {
	// Row: 0 1 -> forced toggle at cycle 0 = unit interval [0,0].
	s := cube.MustParseSet("0", "1")
	mp := Map(s)
	if len(mp.Intervals) != 1 {
		t.Fatalf("intervals = %+v", mp.Intervals)
	}
	iv := mp.Intervals[0].Interval()
	if iv.Start != 0 || iv.End != 0 {
		t.Fatalf("unit interval = %+v", iv)
	}
}

func TestMapDoesNotMutateInput(t *testing.T) {
	s := cube.MustParseSet("0X", "XX", "1X")
	orig := s.Clone()
	Map(s)
	if !s.Equal(orig) {
		t.Fatal("Map mutated its input")
	}
}

func TestFillSimpleOptimal(t *testing.T) {
	// Two pins, both with a 0..1 transition over 4 vectors; two intervals
	// [0,2] each, 3 cycles -> peak 1 is achievable by spreading.
	s := cube.MustParseSet("00", "XX", "XX", "11")
	filled, res := mustFill(t, s)
	if res.Peak != 1 {
		t.Fatalf("peak = %d, want 1\n%v", res.Peak, filled)
	}
	if !s.Covers(filled) {
		t.Fatal("fill violates care bits")
	}
}

func TestFillForcedPeak(t *testing.T) {
	// All four pins toggle with no Xs: peak must be width.
	s := cube.MustParseSet("0000", "1111")
	_, res := mustFill(t, s)
	if res.Peak != 4 {
		t.Fatalf("peak = %d, want 4", res.Peak)
	}
	if res.ForcedUnit != 4 || res.NumIntervals != 4 {
		t.Fatalf("forced=%d intervals=%d, want 4/4", res.ForcedUnit, res.NumIntervals)
	}
}

func TestFillMotivatingExample(t *testing.T) {
	// Fig. 1 scenario: stretches that a greedy middle-placement fill
	// handles sub-optimally but DP-fill spreads to the global optimum.
	// Pins (rows) over 5 vectors:
	//   pin0: 0 X X X 1   interval [0,3]
	//   pin1: 0 X X 1 1   interval [0,2]
	//   pin2: 0 0 X X 1   interval [1,3]
	//   pin3: 0 1 1 1 1   forced [0,0]
	//   pin4: 0 0 0 0 1   forced [3,3]
	s := cube.MustParseSet(
		"00000",
		"XX010",
		"XXX10",
		"X1X10",
		"11111",
	)
	filled, res := mustFill(t, s)
	// 5 intervals over 4 cycles; window [0,3] holds all 5 -> LB = ceil(5/4) = 2.
	if res.Peak != 2 {
		t.Fatalf("peak = %d, want 2\n%v", res.Peak, filled)
	}
}

func TestFillKeepsSpecifiedBitsAndProfile(t *testing.T) {
	s := cube.MustParseSet("0X1X", "X1XX", "10X0", "XXX1")
	filled, res := mustFill(t, s)
	if !s.Covers(filled) {
		t.Fatal("fill is not a completion of the input")
	}
	if len(res.Profile) != s.Len()-1 {
		t.Fatalf("profile length %d", len(res.Profile))
	}
	peak := 0
	for _, p := range res.Profile {
		if p > peak {
			peak = p
		}
	}
	if peak != res.Peak {
		t.Fatalf("profile peak %d != res.Peak %d", peak, res.Peak)
	}
}

func TestFillSingleCube(t *testing.T) {
	s := cube.MustParseSet("0X1")
	filled, res := mustFill(t, s)
	if res.Peak != 0 || !filled.FullySpecified() {
		t.Fatalf("peak=%d filled=%v", res.Peak, filled)
	}
}

func TestBottleneckMatchesFill(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		s := randomSet(r, 1+r.Intn(8), 2+r.Intn(10), 0.5)
		bn, err := Bottleneck(s)
		if err != nil {
			t.Fatal(err)
		}
		_, res := mustFill(t, s)
		if bn != res.Peak {
			t.Fatalf("Bottleneck=%d but Fill peak=%d for\n%v", bn, res.Peak, s)
		}
	}
}

// bruteForcePeak exhaustively enumerates all X assignments of s and
// returns the minimum achievable peak toggle count. Exponential; small
// inputs only.
func bruteForcePeak(s *cube.Set) int {
	var xs [][2]int // (cube index, pin index)
	for j, c := range s.Cubes {
		for i, tr := range c {
			if tr == cube.X {
				xs = append(xs, [2]int{j, i})
			}
		}
	}
	work := s.Clone()
	best := s.Width * s.Len()
	if best == 0 {
		return 0
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			if p := work.PeakToggles(); p < best {
				best = p
			}
			return
		}
		j, i := xs[k][0], xs[k][1]
		work.Cubes[j][i] = cube.Zero
		rec(k + 1)
		work.Cubes[j][i] = cube.One
		rec(k + 1)
		work.Cubes[j][i] = cube.X
	}
	rec(0)
	return best
}

func randomSet(r *rand.Rand, width, n int, xProb float64) *cube.Set {
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

// TestPropertyFillIsOptimal is the paper's headline claim: DP-fill
// achieves exactly the exhaustive minimum peak for any ordering.
func TestPropertyFillIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Keep the X count small enough for 2^X enumeration.
		s := randomSet(r, 1+r.Intn(4), 2+r.Intn(4), 0.45)
		if s.XCount() > 14 {
			return true // skip oversized instances
		}
		filled, res, err := FillWith(s, Options{})
		if err != nil {
			return false
		}
		if !s.Covers(filled) {
			return false
		}
		return res.Peak == bruteForcePeak(s)
	}
	cfg := &quick.Config{MaxCount: 250}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyFillNeverAboveOtherFills: optimality implies DP-fill is at
// least as good as filling everything with zeros.
func TestPropertyFillAtMostZeroFill(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(10), 2+r.Intn(10), 0.6)
		_, res, err := FillWith(s, Options{})
		if err != nil {
			return false
		}
		zero := s.Clone()
		for _, c := range zero.Cubes {
			for i := range c {
				if c[i] == cube.X {
					c[i] = cube.Zero
				}
			}
		}
		return res.Peak <= zero.PeakToggles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPeakEqualsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(20), 2+r.Intn(20), 0.7)
		_, res, err := FillWith(s, Options{})
		if err != nil {
			return false
		}
		return res.Peak == res.LowerBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestReconstructPlacesToggleAtColor(t *testing.T) {
	s := cube.MustParseSet("0", "X", "X", "1") // one interval [0,2]
	mp := Map(s)
	for color := 0; color <= 2; color++ {
		filled := Reconstruct(mp, []int{color})
		prof := filled.ToggleProfile()
		for j, p := range prof {
			want := 0
			if j == color {
				want = 1
			}
			if p != want {
				t.Fatalf("color %d: profile = %v", color, prof)
			}
		}
	}
}

func BenchmarkCoreFillWide(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	s := randomSet(r, 1000, 200, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FillWith(s, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// fillColdSet draws an m-pin × n-cube set the way the fill-cold
// benchmark workload does: each cube's care fraction is exponential
// around 1-x (capped at 0.95), so a few care-dense cubes lead a long
// X-rich tail, and care bits are 0 or 1 with equal odds.
func fillColdSet(r *rand.Rand, m, n int, x float64) *cube.Set {
	s := cube.NewSet(m)
	for range n {
		care := math.Min((1-x)*r.ExpFloat64(), 0.95)
		c := make(cube.Cube, m)
		for p := range c {
			switch u := r.Float64(); {
			case u >= care:
				c[p] = cube.X
			case u < care/2:
				c[p] = cube.Zero
			default:
				c[p] = cube.One
			}
		}
		s.Append(c)
	}
	return s
}

// BenchmarkCoreFillColdShape runs the served DP-fill kernel (one
// shard, as the server runs it) on one fill-cold-shaped request: 768
// pins × 1250 cubes at 85% X with skewed per-cube care. The skew puts
// more intervals behind each busy color than BenchmarkBCPAssign's
// uniform instance does, so the deadline heap carries its real weight.
func BenchmarkCoreFillColdShape(b *testing.B) {
	p := cube.Pack(fillColdSet(rand.New(rand.NewSource(1250)), 768, 1250, 0.85))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FillPacked(p, nil, Options{Shards: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreCountColdShape runs the count-only kernel the server
// runs for an omit_cubes DP job on BenchmarkCoreFillColdShape's set:
// the sweep, the BCP solve and the colouring's histogram, with no
// matrix built.
func BenchmarkCoreCountColdShape(b *testing.B) {
	p := cube.Pack(fillColdSet(rand.New(rand.NewSource(1250)), 768, 1250, 0.85))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountPacked(p, nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
