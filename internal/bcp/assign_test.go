package bcp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestAssignMatchesRef pins the pooled counting-sort Assign and its
// inline-End hole heap to the append-bucket, index-heap reference,
// coloring for coloring, across instance shapes that shrink and regrow
// the pooled scratch between calls.
func TestAssignMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		var inst *Instance
		switch trial % 4 {
		case 0:
			inst = randomInstance(r, 12, 24)
		case 1:
			inst = randomInstance(r, 300, 10)
		case 2:
			inst = randomInstance(r, 8, 120)
		default:
			inst = randomInstance(r, 60, 40)
		}
		checkAssign(t, inst, inst.LowerBound())
		// A capacity one short of the bound must fail the same way.
		if lb := inst.LowerBound(); lb > 1 {
			checkAssign(t, inst, lb-1)
		}
	}
	// One solve through both paths: colors where capacity binds sift,
	// the sparse colors after them drain.
	for trial := 0; trial < 100; trial++ {
		inst := congestedThenSparse(r)
		lb := inst.LowerBound()
		checkAssign(t, inst, lb)
		if lb > 1 {
			checkAssign(t, inst, lb-1)
		}
	}
	// One capacity short, the first missed deadline falls at a color
	// whose bucket would fit: a leftover late entry must still take the
	// sifting path and fail with refAssign's error.
	for trial := 0; trial < 100; trial++ {
		inst, late := lateAtFittingColor(r)
		capacity := inst.LowerBound() - 1
		_, err := inst.refAssign(capacity)
		if want := fmt.Sprintf("at color %d ", late); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("trial %d: reference error %v, want one %q\nintervals %v", trial, err, want, inst.Intervals)
		}
		if n := pendingAt(inst, capacity, late); n > capacity {
			t.Fatalf("trial %d: %d entries pending at color %d, capacity %d: the drain test never fits", trial, n, late, capacity)
		}
		checkAssign(t, inst, capacity)
	}
}

// pendingAt counts the heap and bucket entries Algorithm 2 holds at
// color c at the given capacity, assuming no deadline is missed
// before c.
func pendingAt(inst *Instance, capacity, c int) int {
	buckets := make([]int, inst.NumColors)
	for _, iv := range inst.Intervals {
		buckets[iv.Start]++
	}
	pending := 0
	for x := range c {
		pending += buckets[x]
		pending -= min(capacity, pending)
	}
	return pending + buckets[c]
}

// congestedThenSparse builds an instance whose first colors are
// crowded, every interval there starting at color 0, so capacity binds,
// and whose remaining colors hold at most one short interval each.
func congestedThenSparse(r *rand.Rand) *Instance {
	prefix := 2 + r.Intn(12)
	inst := &Instance{NumColors: prefix + 1 + r.Intn(60)}
	for range prefix + 1 + r.Intn(6*prefix) {
		inst.Intervals = append(inst.Intervals, Interval{Start: 0, End: r.Intn(prefix)})
	}
	for c := prefix; c < inst.NumColors; c++ {
		if r.Intn(2) == 0 {
			inst.Intervals = append(inst.Intervals, Interval{Start: c, End: min(c+r.Intn(3), inst.NumColors-1)})
		}
	}
	r.Shuffle(len(inst.Intervals), func(i, j int) {
		inst.Intervals[i], inst.Intervals[j] = inst.Intervals[j], inst.Intervals[i]
	})
	return inst
}

// lateAtFittingColor builds an instance with a burst of m >= 5 unit
// intervals at one color c0 among a few sparse long ones. At capacity
// m-1 one burst interval is left over, so EDF first misses a deadline
// at c0+1, where the leftover and at most two sparse intervals fit in
// capacity. It returns the instance and c0+1.
func lateAtFittingColor(r *rand.Rand) (*Instance, int) {
	c := 4 + r.Intn(80)
	c0 := r.Intn(c - 1)
	m := 5 + r.Intn(6)
	inst := &Instance{NumColors: c}
	for range m {
		inst.Intervals = append(inst.Intervals, Interval{Start: c0, End: c0})
	}
	// One sparse interval starts every 8 colors and spans at most 15,
	// so at most two are pending at any color and the burst alone sets
	// the bound.
	for s := r.Intn(8); s < c; s += 8 {
		inst.Intervals = append(inst.Intervals, Interval{Start: s, End: min(s+7+r.Intn(8), c-1)})
	}
	r.Shuffle(len(inst.Intervals), func(i, j int) {
		inst.Intervals[i], inst.Intervals[j] = inst.Intervals[j], inst.Intervals[i]
	})
	return inst, c0 + 1
}

// checkAssign compares Assign and refAssign at one capacity: the same
// coloring, or the same error.
func checkAssign(t *testing.T, inst *Instance, capacity int) {
	t.Helper()
	got, gotErr := inst.Assign(capacity)
	want, wantErr := inst.refAssign(capacity)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("C=%d k=%d capacity %d: Assign error %v, ref %v", inst.NumColors, len(inst.Intervals), capacity, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("C=%d k=%d capacity %d: Assign %v, ref %v\nintervals %v", inst.NumColors, len(inst.Intervals), capacity, got, want, inst.Intervals)
	}
}

// TestAssignAllocatesOnlyColors: with warm pooled scratch, Assign's
// one allocation is the coloring it returns. Under -race sync.Pool
// drops items at random, so the count is not stable there.
func TestAssignAllocatesOnlyColors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	inst := randomInstance(rand.New(rand.NewSource(7)), 500, 4000)
	lb := inst.LowerBound()
	if _, err := inst.Assign(lb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := inst.Assign(lb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Assign allocates %.1f times per call, want 1 (the coloring)", allocs)
	}
}

// FuzzBCP decodes an instance from bytes — the first picks the color
// count, each following pair one interval — and checks it with
// checkSolve.
func FuzzBCP(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{7, 0, 7, 0, 7, 0, 7, 3, 0, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		inst := &Instance{NumColors: 1 + int(data[0])%32}
		for b := data[1:]; len(b) >= 2 && len(inst.Intervals) < 64; b = b[2:] {
			s := int(b[0]) % inst.NumColors
			e := s + int(b[1])%(inst.NumColors-s)
			inst.Intervals = append(inst.Intervals, Interval{Start: s, End: e})
		}
		checkSolve(t, inst)
	})
}

// checkSolve is FuzzBCP's oracle: Solve against the unpruned
// reference bound, the bound's traversal limit, the reference
// assignment and, when the instance is small enough, the exhaustive
// optimum.
func checkSolve(t *testing.T, inst *Instance) {
	t.Helper()
	sol, err := inst.Solve()
	if err != nil {
		t.Fatalf("Solve: %v\nintervals %v", err, inst.Intervals)
	}
	if ref := checkBoundStats(t, inst); sol.LowerBound != ref || sol.Bottleneck != ref {
		t.Fatalf("bound %d, bottleneck %d, reference bound %d\nintervals %v", sol.LowerBound, sol.Bottleneck, ref, inst.Intervals)
	}
	if len(inst.Intervals) > 0 {
		checkAssign(t, inst, sol.LowerBound)
	}
	if len(inst.Intervals) <= 7 && inst.NumColors <= 8 {
		if bf := inst.BruteForce(); bf != sol.Bottleneck {
			t.Fatalf("bottleneck %d, exhaustive optimum %d\nintervals %v", sol.Bottleneck, bf, inst.Intervals)
		}
	}
}

// TestDeadlineHeapMatchesEndHeap drives the hole heap and the
// reference index heap through the same random push/pop interleaving,
// with Ends drawn from a tiny range so ties are everywhere: every pop
// must return the same interval.
func TestDeadlineHeapMatchesEndHeap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(300)
		ivs := make([]Interval, k)
		for i := range ivs {
			ivs[i].End = r.Intn(1 + r.Intn(8))
		}
		ref := &endHeap{intervals: ivs, idx: make([]int, 0, k)}
		h := make(deadlineHeap, 0, k)
		next := 0
		for next < k || len(h) > 0 {
			if next < k && (len(h) == 0 || r.Intn(3) > 0) {
				ref.push(next)
				h.push(entry{end: int32(ivs[next].End), idx: int32(next)})
				next++
				continue
			}
			want, got := ref.pop(), h.pop()
			if int(got.idx) != want || int(got.end) != ivs[want].End {
				t.Fatalf("trial %d: pop gave interval %d (End %d), reference %d (End %d)", trial, got.idx, got.end, want, ivs[want].End)
			}
		}
	}
}
