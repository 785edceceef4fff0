package bcp

import (
	"math/rand"
	"testing"
)

// TestLowerBoundMatchesRef pins the pruned LowerBound (seed pass,
// density prune, empty-start skip, suffix break, fold horizon, pooled
// scratch) to the unpruned reference sweep over a spread of instance
// shapes: dense and sparse starts, unit intervals, full-range
// intervals, and empty instances. It also bounds the traversal by the
// sorted-bucket sweep's (see checkBoundStats).
func TestLowerBoundMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 400; trial++ {
		var inst *Instance
		switch trial % 4 {
		case 0: // small dense
			inst = randomInstance(r, 12, 24)
		case 1: // wide sparse: most starts empty
			inst = randomInstance(r, 300, 10)
		case 2: // many intervals, tight range: large lb, short horizon
			inst = randomInstance(r, 8, 120)
		default: // mixed
			inst = randomInstance(r, 60, 40)
		}
		got := inst.LowerBound()
		want := inst.lowerBoundRef()
		if got != want {
			t.Fatalf("trial %d (C=%d, k=%d): pruned LowerBound = %d, ref = %d\nintervals: %v",
				trial, inst.NumColors, len(inst.Intervals), got, want, inst.Intervals)
		}
		checkBoundStats(t, inst)
	}
}

// checkBoundStats requires lowerBound to agree with refLowerBound and
// lowerBoundRef on the bound, and to scan at most refLowerBound's
// windows plus seedSpan per color: the full pass visits a subset of
// the single-pass sweep's windows, and the seed pass adds at most
// seedSpan windows per color. It returns the bound.
func checkBoundStats(t *testing.T, inst *Instance) int {
	t.Helper()
	var got, want Stats
	gotLB, wantLB := inst.lowerBound(&got), inst.refLowerBound(&want)
	if full := inst.lowerBoundRef(); gotLB != wantLB || gotLB != full {
		t.Fatalf("C=%d k=%d: bound %d, reference %d, unpruned reference %d\nintervals: %v",
			inst.NumColors, len(inst.Intervals), gotLB, wantLB, full, inst.Intervals)
	}
	if limit := want.WindowsScanned + seedSpan*inst.NumColors; got.WindowsScanned > limit {
		t.Fatalf("C=%d k=%d: %d windows scanned, limit %d (reference %+v, got %+v)\nintervals: %v",
			inst.NumColors, len(inst.Intervals), got.WindowsScanned, limit, want, got, inst.Intervals)
	}
	return gotLB
}

// TestLowerBoundAllocatesNothing: with warm pooled scratch, the bound
// allocates nothing. Under -race sync.Pool drops items at random, so
// the count is not stable there.
func TestLowerBoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	inst := randomInstance(rand.New(rand.NewSource(7)), 500, 4000)
	inst.LowerBound()
	if allocs := testing.AllocsPerRun(50, func() { inst.LowerBound() }); allocs != 0 {
		t.Fatalf("LowerBound allocates %.1f times per call, want 0", allocs)
	}
}

// TestLowerBoundScratchResize alternates color-range sizes so the
// pooled scratch shrinks and regrows across calls; a stale bucket or a
// non-zeroed row entry from a previous size shows up as a wrong bound.
func TestLowerBoundScratchResize(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sizes := []struct{ c, k int }{{200, 50}, {5, 8}, {120, 30}, {3, 3}, {250, 12}}
	type cased struct {
		inst *Instance
		want int
	}
	var cases []cased
	for _, sz := range sizes {
		inst := randomInstance(r, sz.c, sz.k)
		cases = append(cases, cased{inst, inst.lowerBoundRef()})
	}
	for iter := 0; iter < 10; iter++ {
		for i, cs := range cases {
			if got := cs.inst.LowerBound(); got != cs.want {
				t.Fatalf("iter %d case %d: LowerBound = %d, want %d (scratch reuse corrupted)",
					iter, i, got, cs.want)
			}
		}
	}
}

// TestLowerBoundConcurrent runs bounds in parallel over shared
// instances; under -race this checks the scratch pool hand-off.
func TestLowerBoundConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	insts := make([]*Instance, 6)
	wants := make([]int, len(insts))
	for i := range insts {
		insts[i] = randomInstance(r, 80, 60)
		wants[i] = insts[i].lowerBoundRef()
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % len(insts)
				if got := insts[i].LowerBound(); got != wants[i] {
					t.Errorf("goroutine %d: instance %d bound %d, want %d", g, i, got, wants[i])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
