package bcp

import (
	"math"
	"sync"
)

// maxKernel bounds the color count and interval count the kernel
// accepts: entries store Ends and indices as int32, and the deadline
// heap uses math.MaxInt32 as a sentinel End no real interval reaches.
const maxKernel = math.MaxInt32

// entry is one interval as both algorithms see it: its End inline
// beside its index, 8 bytes like a plain int index, so the deadline
// heap compares without loading the interval it names.
type entry struct{ end, idx int32 }

// scratch is the pooled working memory of one solve, shared by
// Algorithm 1 and Algorithm 2 so SolveStats buckets the intervals by
// Start only once:
//
//   - offsets and byStart are a counting sort by Start: bucket s is
//     byStart[offsets[s]:offsets[s+1]], in ascending interval index.
//   - t is Algorithm 1's rolling T(i,j) row and delta its per-color
//     count of the current start's Ends not yet swept; hz[i] is how
//     far a pass evaluates and folds start i (hz has one spare entry,
//     which densityHorizon's suffix maxima use).
//   - heap is Algorithm 2's deadline heap.
//
// Invariant at rest (in the pool): every entry of t[:cap] and
// delta[:cap] is 0, so getScratch only has to re-slice. Each sweep
// leaves delta zero and clears t before returning; offsets and byStart
// are fully rewritten by bucket, hz by each pass, heap by its pushes.
type scratch struct {
	offsets []int
	byStart []entry
	t       []int
	delta   []int32
	hz      []int64
	heap    []entry
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch checks out scratch for c colors and k intervals: offsets
// of length c+1, byStart of length k, t and delta of length c and
// zeroed, hz of length c+1, heap of length 0 and capacity k.
func getScratch(c, k int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.offsets) < c+1 {
		sc.offsets = make([]int, c+1)
		sc.t = make([]int, c)
		sc.delta = make([]int32, c)
		sc.hz = make([]int64, c+1)
	}
	sc.offsets = sc.offsets[:c+1]
	sc.t = sc.t[:c]
	sc.delta = sc.delta[:c]
	sc.hz = sc.hz[:c+1]
	if cap(sc.byStart) < k {
		sc.byStart = make([]entry, k)
		sc.heap = make([]entry, 0, k)
	}
	sc.byStart = sc.byStart[:k]
	sc.heap = sc.heap[:0]
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// dpvet:hot
// bucket counting-sorts ivs by Start (the "sort by starting time" of
// Algorithm 2 line 1) into offsets and byStart. offsets[s+1] first
// counts bucket s, then becomes its start, then — after placement —
// its end, which is where bucket s+1 begins. Placement walks ivs in
// index order, so each bucket lists its intervals by ascending index.
func (sc *scratch) bucket(ivs []Interval) {
	off := sc.offsets
	clear(off)
	for _, iv := range ivs {
		off[iv.Start+1]++
	}
	sum := 0
	for s, n := range off[1:] {
		off[s+1] = sum
		sum += n
	}
	for i, iv := range ivs {
		p := off[iv.Start+1]
		sc.byStart[p] = entry{end: int32(iv.End), idx: int32(i)}
		off[iv.Start+1] = p + 1
	}
}
