package bcp

import (
	"fmt"
	"sort"
)

// lowerBoundRef is the unpruned Algorithm 1 sweep exactly as it stood
// before the windowed prunings landed in LowerBound: the full O(C²+k)
// rolling-row maximization with no empty-start skip, no suffix break
// and no fold horizon. The differential tests pin LowerBound to it
// bit-for-bit, so any pruning that is not exact fails loudly.
func (inst *Instance) lowerBoundRef() int {
	if len(inst.Intervals) == 0 {
		return 0
	}
	c := inst.NumColors
	endsByStart := make([][]int, c)
	for _, iv := range inst.Intervals {
		endsByStart[iv.Start] = append(endsByStart[iv.Start], iv.End)
	}
	for s := range endsByStart {
		sort.Ints(endsByStart[s])
	}

	lb := 0
	t := make([]int, c)
	for i := c - 1; i >= 0; i-- {
		ends := endsByStart[i]
		p := 0
		for j := i; j < c; j++ {
			for p < len(ends) && ends[p] <= j {
				p++
			}
			count := t[j] + p
			window := j - i + 1
			if b := (count + window - 1) / window; b > lb {
				lb = b
			}
		}
		p = 0
		for j := i; j < c; j++ {
			for p < len(ends) && ends[p] <= j {
				p++
			}
			t[j] += p
		}
	}
	return lb
}

// refAssign is Algorithm 2 as Assign stood before its scratch was
// pooled: a fresh [][]int of per-start buckets grown by append, and a
// fresh heap. The differential and fuzz tests pin Assign to it,
// coloring for coloring.
func (inst *Instance) refAssign(capacity int) ([]int, error) {
	k := len(inst.Intervals)
	if k == 0 {
		return nil, nil
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bcp: capacity %d must be positive", capacity)
	}
	// Bucket interval indices by start color (counting sort — the
	// "sort by starting time" of Algorithm 2 line 1).
	byStart := make([][]int, inst.NumColors)
	for i, iv := range inst.Intervals {
		byStart[iv.Start] = append(byStart[iv.Start], i)
	}

	colors := make([]int, k)
	h := &endHeap{intervals: inst.Intervals, idx: make([]int, 0, k)}
	assigned := 0
	for c := 0; c < inst.NumColors; c++ {
		for _, i := range byStart[c] {
			h.push(i)
		}
		for picked := 0; picked < capacity && len(h.idx) > 0; picked++ {
			i := h.pop()
			if inst.Intervals[i].End < c {
				return nil, fmt.Errorf("bcp: interval [%d,%d] missed its deadline at color %d (capacity %d too small)",
					inst.Intervals[i].Start, inst.Intervals[i].End, c, capacity)
			}
			colors[i] = c
			assigned++
		}
	}
	if assigned != k {
		return nil, fmt.Errorf("bcp: %d of %d intervals left unassigned", k-assigned, k)
	}
	return colors, nil
}
