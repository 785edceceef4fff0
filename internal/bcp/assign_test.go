package bcp

import (
	"math/rand"
	"slices"
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
// count, each following pair one interval — and checks Solve against
// the reference bound (value and prune counters), the reference
// assignment and, when the instance is small enough, the exhaustive
// optimum.
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
		sol, err := inst.Solve()
		if err != nil {
			t.Fatalf("Solve: %v\nintervals %v", err, inst.Intervals)
		}
		if ref := inst.lowerBoundRef(); sol.LowerBound != ref || sol.Bottleneck != ref {
			t.Fatalf("bound %d, bottleneck %d, reference bound %d\nintervals %v", sol.LowerBound, sol.Bottleneck, ref, inst.Intervals)
		}
		checkBoundStats(t, inst)
		if len(inst.Intervals) > 0 {
			checkAssign(t, inst, sol.LowerBound)
		}
		if len(inst.Intervals) <= 7 && inst.NumColors <= 8 {
			if bf := inst.BruteForce(); bf != sol.Bottleneck {
				t.Fatalf("bottleneck %d, exhaustive optimum %d\nintervals %v", sol.Bottleneck, bf, inst.Intervals)
			}
		}
	})
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
