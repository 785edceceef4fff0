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

// refLowerBound is Algorithm 1 as LowerBound stood before its buckets
// were flattened and before the seed pass and density prune: one pass
// over per-start [][]int end lists, each sorted, swept with a forward
// pointer that counts "End <= j", under the empty-start skip, the
// suffix break and the fold horizon. The differential and fuzz tests
// pin LowerBound to it on the bound, and bound LowerBound's
// WindowsScanned by its count plus seedSpan per color: the pruned pass
// visits a subset of this sweep's windows.
func (inst *Instance) refLowerBound(st *Stats) int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	startsScanned, startsSkipped, windows, suffixBreaks := 0, 0, 0, 0
	c := inst.NumColors
	endsByStart := make([][]int, c)
	for _, iv := range inst.Intervals {
		endsByStart[iv.Start] = append(endsByStart[iv.Start], iv.End)
	}
	for s := range endsByStart {
		sort.Ints(endsByStart[s])
	}
	lb := 0
	suffix := 0
	t := make([]int, c)
	for i := c - 1; i >= 0; i-- {
		ends := endsByStart[i]
		if len(ends) == 0 {
			startsSkipped++
			continue
		}
		startsScanned++
		suffix += len(ends)
		p := 0
		j := i
		for ; j < c; j++ {
			window := j - i + 1
			if lb > 0 && lb*window >= suffix {
				suffixBreaks++
				break
			}
			windows++
			for p < len(ends) && ends[p] <= j {
				p++
			}
			count := t[j] + p
			t[j] = count
			if count > lb*window {
				lb = (count + window - 1) / window
			}
		}
		for ; j < c; j++ {
			if lb*(j-i+1) >= k {
				break
			}
			for p < len(ends) && ends[p] <= j {
				p++
			}
			t[j] += p
		}
	}
	if st != nil {
		st.StartsScanned += startsScanned
		st.StartsSkipped += startsSkipped
		st.WindowsScanned += windows
		st.SuffixBreaks += suffixBreaks
	}
	return lb
}

// refAssign is Algorithm 2 as Assign stood before its scratch was
// pooled: a fresh [][]int of per-start buckets grown by append, and a
// fresh endHeap of indices. The differential and fuzz tests pin Assign to it,
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

// endHeap is the deadline heap Assign used before its entries carried
// their End inline: a min-heap of interval indices ordered by End,
// sifting exactly as container/heap does, with a swap per level.
type endHeap struct {
	idx       []int
	intervals []Interval
}

func (h *endHeap) less(i, j int) bool {
	return h.intervals[h.idx[i]].End < h.intervals[h.idx[j]].End
}

func (h *endHeap) push(v int) {
	h.idx = append(h.idx, v)
	for i := len(h.idx) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.idx[i], h.idx[parent] = h.idx[parent], h.idx[i]
		i = parent
	}
}

func (h *endHeap) pop() int {
	n := len(h.idx) - 1
	h.idx[0], h.idx[n] = h.idx[n], h.idx[0]
	v := h.idx[n]
	h.idx = h.idx[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
		i = j
	}
	return v
}
