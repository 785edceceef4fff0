package bcp

import "sync"

// lbScratch is the reusable working memory of LowerBound: the
// start-bucketed end lists and the rolling T(i,j) row, both sized by
// the color range. Pooled because the fill hot path computes one bound
// per fill (plus one per Solve) and the buckets dominate its transient
// allocation.
//
// Invariant at rest (in the pool): every entry of ends[:cap] has
// length 0 and every entry of t[:cap] is 0, so getLBScratch only has
// to re-slice. putLBScratch restores the invariant for the entries the
// last use touched; entries beyond the current length were already
// reset by the put that last used them.
type lbScratch struct {
	ends [][]int
	t    []int
}

var lbPool = sync.Pool{New: func() any { return new(lbScratch) }}

func getLBScratch(c int) *lbScratch {
	sc := lbPool.Get().(*lbScratch)
	if cap(sc.ends) < c || cap(sc.t) < c {
		sc.ends = make([][]int, c)
		sc.t = make([]int, c)
	} else {
		sc.ends = sc.ends[:c]
		sc.t = sc.t[:c]
	}
	return sc
}

func putLBScratch(sc *lbScratch) {
	for s := range sc.ends {
		sc.ends[s] = sc.ends[s][:0]
	}
	for j := range sc.t {
		sc.t[j] = 0
	}
	lbPool.Put(sc)
}

// assignScratch is the reusable working memory of Assign: the
// counting-sort offsets (one per color), the flat start-bucketed index
// array and the deadline heap's index slice (one slot per interval).
// At rest offsets is all zero, so a checkout only re-slices; the other
// two are fully overwritten by each use.
type assignScratch struct {
	offsets, byStart, heap []int
}

var assignPool = sync.Pool{New: func() any { return new(assignScratch) }}

// getAssignScratch checks out scratch for c colors and k intervals:
// offsets has length c and is zeroed, byStart length k, heap length 0
// and capacity k.
func getAssignScratch(c, k int) *assignScratch {
	sc := assignPool.Get().(*assignScratch)
	if cap(sc.offsets) < c {
		sc.offsets = make([]int, c)
	}
	sc.offsets = sc.offsets[:c]
	if cap(sc.byStart) < k {
		sc.byStart = make([]int, k)
		sc.heap = make([]int, 0, k)
	}
	sc.byStart = sc.byStart[:k]
	sc.heap = sc.heap[:0]
	return sc
}

func putAssignScratch(sc *assignScratch) {
	clear(sc.offsets)
	assignPool.Put(sc)
}
