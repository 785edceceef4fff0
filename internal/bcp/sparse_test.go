package bcp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowerBoundSparseBasics(t *testing.T) {
	if lb := mustInstance(t, 10).lowerBoundSparse(); lb != 0 {
		t.Fatalf("empty sparse LB = %d", lb)
	}
	inst := mustInstance(t, 4, Interval{1, 1}, Interval{1, 1}, Interval{1, 1})
	if lb := inst.lowerBoundSparse(); lb != 3 {
		t.Fatalf("sparse LB = %d, want 3", lb)
	}
}

func TestLowerBoundSparseHugeRange(t *testing.T) {
	// A color range of a million with three intervals: the dense DP
	// would touch every color; the sparse variant must not care.
	inst := mustInstance(t, 1_000_000,
		Interval{10, 999_000},
		Interval{500_000, 500_000},
		Interval{500_001, 500_001},
		Interval{500_000, 500_001},
	)
	// Window [500000,500001] holds three intervals -> ceil(3/2) = 2.
	if lb := inst.lowerBoundSparse(); lb != 2 {
		t.Fatalf("sparse LB = %d, want 2", lb)
	}
}

// TestPropertySparseMatchesDense: both Algorithm 1 implementations
// agree on random instances.
func TestPropertySparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 40, 60)
		return inst.LowerBound() == inst.lowerBoundSparse()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySparseIsAchievable: Algorithm 2 attains the sparse bound
// too (they are the same bound).
func TestPropertySparseIsAchievable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r, 30, 80)
		lb := inst.lowerBoundSparse()
		if len(inst.Intervals) == 0 {
			return lb == 0
		}
		colors, err := inst.Assign(maxIntBCP(lb, 1))
		if err != nil {
			return false
		}
		bn, err := inst.CheckColoring(colors)
		return err == nil && bn <= maxIntBCP(lb, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func maxIntBCP(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkBCPLowerBoundSparse(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomInstance(r, 500, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.lowerBoundSparse()
	}
}

// lowerBoundSparse computes the Algorithm 1 bound in O(k²) for k
// intervals, independent of the color-range size — the complexity the
// paper states for its endpoint formulation. It is a test oracle: an
// independent route to the bound that LowerBound is checked against. The window maximization
// only needs windows [i,j] whose i is some interval's Start and whose j
// is some interval's End (shrinking any other window keeps T(i,j) while
// reducing j-i+1... shrinking to the nearest enclosed endpoints never
// decreases the ratio), so it enumerates endpoint pairs only.
//
// LowerBound (the rolling dense DP) is the served path; this variant
// wins only for sparse instances over huge ranges. The two are
// cross-checked by property tests.
func (inst *Instance) lowerBoundSparse() int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	starts := make([]int, 0, k)
	ends := make([]int, 0, k)
	for _, iv := range inst.Intervals {
		starts = append(starts, iv.Start)
		ends = append(ends, iv.End)
	}
	starts = dedupSorted(starts)
	ends = dedupSorted(ends)

	// byStart: intervals sorted by Start, with their Ends, so that for a
	// fixed window start we can sweep window ends in one pass.
	ord := make([]int, k)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		return inst.Intervals[ord[a]].Start < inst.Intervals[ord[b]].Start
	})

	lb := 0
	for _, i := range starts {
		// Collect the ends of intervals with Start >= i, sorted; then
		// T(i,j) = #ends <= j, swept over candidate ends.
		var endsIn []int
		for _, idx := range ord {
			iv := inst.Intervals[idx]
			if iv.Start >= i {
				endsIn = append(endsIn, iv.End)
			}
		}
		sort.Ints(endsIn)
		p := 0
		for _, j := range ends {
			if j < i {
				continue
			}
			for p < len(endsIn) && endsIn[p] <= j {
				p++
			}
			window := j - i + 1
			if b := (p + window - 1) / window; b > lb {
				lb = b
			}
		}
	}
	return lb
}

func dedupSorted(a []int) []int {
	sort.Ints(a)
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
