// Package bcp implements the Bottleneck Coloring Problem (BCP) of §V of
// the DP-fill paper: given intervals over a discrete color range, assign
// each interval one color inside it so that the maximum number of
// intervals sharing a color (the bottleneck) is minimized.
//
// In the hotel analogy of §V-A, colors are days and intervals are guest
// requests; the hotel wants to minimize the busiest day's occupancy. In
// the X-filling application, colors are test cycles (boundaries between
// consecutive test vectors) and each interval is a row stretch that must
// place exactly one toggle.
//
// The package provides the paper's two algorithms — the dynamic-
// programming lower bound (Algorithm 1) and the earliest-deadline greedy
// assignment (Algorithm 2) — plus an exhaustive solver used to verify
// optimality in tests. Colors are 0-based: an instance with NumColors = C
// uses colors 0..C-1.
package bcp

import (
	"fmt"
	"sort"
	"time"
)

// Stats is the solver's explain record: how hard Algorithm 1 worked
// and where its prunings bit, plus wall time split between the bound
// and the assignment. A nil *Stats costs the hot path nothing; core
// threads one through SolveStats when a fill runs with a trace sink.
// Counters accumulate, so one Stats can aggregate several solves.
type Stats struct {
	// StartsScanned counts window starts the Algorithm 1 sweep
	// evaluated; StartsSkipped counts starts pruned outright by the
	// empty-start domination rule.
	StartsScanned int `json:"starts_scanned"`
	StartsSkipped int `json:"starts_skipped"`
	// WindowsScanned counts inner bound evaluations (one per [i,j]
	// window actually visited); SuffixBreaks counts j sweeps cut short
	// by the suffix bound.
	WindowsScanned int `json:"windows_scanned"`
	SuffixBreaks   int `json:"suffix_breaks"`
	// BoundNS and AssignNS split the solve's wall time between
	// Algorithm 1 (lower bound) and Algorithm 2 (EDF assignment,
	// including the legality check).
	BoundNS  int64 `json:"bound_ns"`
	AssignNS int64 `json:"assign_ns"`
}

// Add accumulates o into st.
func (st *Stats) Add(o Stats) {
	st.StartsScanned += o.StartsScanned
	st.StartsSkipped += o.StartsSkipped
	st.WindowsScanned += o.WindowsScanned
	st.SuffixBreaks += o.SuffixBreaks
	st.BoundNS += o.BoundNS
	st.AssignNS += o.AssignNS
}

// Interval is one BCP request: a color in [Start, End] (inclusive, both
// 0-based) must be assigned to it.
type Interval struct {
	Start, End int
}

// Valid reports whether the interval is well-formed and lies inside a
// color range of size numColors.
func (iv Interval) Valid(numColors int) bool {
	return 0 <= iv.Start && iv.Start <= iv.End && iv.End < numColors
}

// Contains reports whether color c may legally be assigned to iv.
func (iv Interval) Contains(c int) bool { return iv.Start <= c && c <= iv.End }

// Instance is a BCP problem: a set of intervals over colors 0..NumColors-1.
type Instance struct {
	NumColors int
	Intervals []Interval
}

// NewInstance validates and builds an instance. It returns an error if
// any interval falls outside the color range or is inverted.
func NewInstance(numColors int, intervals []Interval) (*Instance, error) {
	if numColors < 0 {
		return nil, fmt.Errorf("bcp: negative color count %d", numColors)
	}
	for i, iv := range intervals {
		if !iv.Valid(numColors) {
			return nil, fmt.Errorf("bcp: interval %d = [%d,%d] invalid for %d colors",
				i, iv.Start, iv.End, numColors)
		}
	}
	return &Instance{NumColors: numColors, Intervals: intervals}, nil
}

// Solution is a complete coloring of an instance.
type Solution struct {
	// Colors[i] is the color assigned to Intervals[i].
	Colors []int
	// Bottleneck is the maximum number of intervals sharing any color.
	Bottleneck int
	// LowerBound is the Algorithm 1 bound; by the paper's theorem it
	// always equals Bottleneck for solutions produced by Solve.
	LowerBound int
}

// Histogram returns, for each color, the number of intervals assigned to
// it. colors[i] must be a valid color for instance inst.
func (inst *Instance) Histogram(colors []int) []int {
	h := make([]int, inst.NumColors)
	for _, c := range colors {
		h[c]++
	}
	return h
}

// CheckColoring verifies that colors is a legal coloring of inst (every
// interval received a color inside its range) and returns the bottleneck.
func (inst *Instance) CheckColoring(colors []int) (int, error) {
	if len(colors) != len(inst.Intervals) {
		return 0, fmt.Errorf("bcp: coloring has %d entries for %d intervals",
			len(colors), len(inst.Intervals))
	}
	h := make([]int, inst.NumColors)
	for i, c := range colors {
		iv := inst.Intervals[i]
		if c < 0 || c >= inst.NumColors || !iv.Contains(c) {
			return 0, fmt.Errorf("bcp: interval %d = [%d,%d] assigned illegal color %d",
				i, iv.Start, iv.End, c)
		}
		h[c]++
	}
	max := 0
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// LowerBound implements Algorithm 1 of the paper: the maximum over all
// color windows [i,j] of ceil(T(i,j)/(j-i+1)), where T(i,j) counts the
// intervals wholly contained in the window. Any coloring must place all
// T(i,j) such intervals on the j-i+1 colors of the window, so some color
// receives at least the ceiling — making the result a true lower bound
// on the bottleneck.
//
// The paper states the T recurrence as an O(k²) table over interval
// endpoints; we compute the equivalent window maximization with a rolling
// row over colors in O(C+k) memory for C colors and k intervals. Three
// exact prunings cut the naive O(C²) window sweep down on the instances
// DP-fill produces (lb well above 1, starts sparse in the color range):
//
//   - Empty starts: a window [i,j] with no interval starting at i
//     contains the same intervals as [i+1,j] over one more color, so its
//     bound is dominated and i is skipped outright.
//   - Suffix break: every interval contained in [i,j] starts at or
//     after i, so T(i,j) <= suffix(i). Once lb·(j-i+1) >= suffix(i) no
//     wider window starting at i can beat lb, and the j sweep stops.
//   - Fold horizon: the rolling row t[j] only needs folding out to
//     lb·(j-i+1) < k, because lb is monotone non-decreasing, so every
//     future read of t[j] (from a smaller i', before its own suffix
//     break) lies strictly inside that horizon.
//
// Worst case stays O(C²+k); with a large bound lb the sweep per start is
// O(k/lb). The bucket-and-row scratch comes from a sync.Pool so the
// serving path's per-fill bound costs no steady-state allocation.
func (inst *Instance) LowerBound() int {
	return inst.lowerBound(nil)
}

// lowerBound is LowerBound with an optional explain sink. Counters are
// kept in locals through the sweep and flushed once at the end, so the
// traced and untraced paths run the same inner loops.
func (inst *Instance) lowerBound(st *Stats) int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	startsScanned, startsSkipped, windows, suffixBreaks := 0, 0, 0, 0
	c := inst.NumColors
	sc := getLBScratch(c)
	defer putLBScratch(sc)
	// endsByStart[s] lists the End values of intervals starting at s,
	// sorted ascending so a forward pointer can count "End <= j" cheaply.
	endsByStart := sc.ends
	for _, iv := range inst.Intervals {
		endsByStart[iv.Start] = append(endsByStart[iv.Start], iv.End)
	}
	for s := range endsByStart {
		if len(endsByStart[s]) > 1 {
			sort.Ints(endsByStart[s])
		}
	}

	lb := 0
	suffix := 0 // number of intervals with Start >= i
	// t[j] carries T(i,j) for the current window start i. Iterating i
	// downward lets us reuse T(i+1,j) and add the intervals with
	// Start == i and End <= j via the sorted ends pointer.
	t := sc.t
	for i := c - 1; i >= 0; i-- {
		ends := endsByStart[i]
		if len(ends) == 0 {
			startsSkipped++
			continue // dominated by the window starting at the next start
		}
		startsScanned++
		suffix += len(ends)
		// Evaluate windows [i,j] and fold the Start == i intervals
		// into t in the same sweep: count = T(i,j) = T(i+1,j) + p is
		// exactly the folded value the next (smaller) start needs, so
		// one read-modify-write of t[j] serves both. Folding past the
		// horizon is always sound (the horizon only licenses omitting
		// writes); the evaluation break is the binding one since
		// suffix(i) <= k.
		p := 0
		j := i
		for ; j < c; j++ {
			window := j - i + 1
			if lb > 0 && lb*window >= suffix {
				suffixBreaks++
				break // ceil(T/window) <= ceil(suffix/window) <= lb from here on
			}
			windows++
			for p < len(ends) && ends[p] <= j {
				p++
			}
			count := t[j] + p // T(i,j) = T(i+1,j) + |{Start==i, End<=j}|
			t[j] = count
			if count > lb*window {
				lb = (count + window - 1) / window
			}
		}
		// Keep folding out to the fold horizon, which can extend past
		// the evaluation break.
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

// endHeap is a hand-rolled min-heap of interval indices ordered by
// interval End — the "deadline" heap of Algorithm 2. It reproduces
// container/heap's sift order exactly (so EDF tie-breaks, and with
// them the assigned colors, are unchanged) without heap.Interface's
// boxed Push/Pop values and indirect Less calls, which dominated the
// solver's profile.
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

// Assign implements Algorithm 2: process colors in increasing order,
// admit the intervals whose Start equals the current color into a
// min-heap keyed by End, and pop at most `capacity` intervals per color
// (earliest deadline first), assigning them the current color.
//
// With capacity = LowerBound(), the paper's theorem (§VI-C) guarantees
// every popped interval still has End >= current color, so the coloring
// is legal and its bottleneck equals the lower bound — i.e. it is
// optimal. Assign nevertheless verifies legality and returns an error if
// the capacity was too small (which indicates caller misuse, not an
// algorithmic failure).
//
// The start buckets are a counting sort into one flat index array, and
// the heap's index slice comes from the same pool as the buckets, so
// the returned coloring is the call's only steady-state allocation.
// Each bucket lists its intervals in ascending index order, the order
// the heap admits them in, so ties break exactly as they always have.
func (inst *Instance) Assign(capacity int) ([]int, error) {
	k := len(inst.Intervals)
	if k == 0 {
		return nil, nil
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bcp: capacity %d must be positive", capacity)
	}
	sc := getAssignScratch(inst.NumColors, k)
	defer putAssignScratch(sc)
	// Counting sort by start color (the "sort by starting time" of
	// Algorithm 2 line 1): offsets[c] counts, then becomes the start of
	// bucket c, then — after placement — its end.
	offsets, byStart := sc.offsets, sc.byStart
	for _, iv := range inst.Intervals {
		offsets[iv.Start]++
	}
	sum := 0
	for c, n := range offsets {
		offsets[c] = sum
		sum += n
	}
	for i, iv := range inst.Intervals {
		byStart[offsets[iv.Start]] = i
		offsets[iv.Start]++
	}

	colors := make([]int, k)
	h := endHeap{intervals: inst.Intervals, idx: sc.heap}
	assigned, lo := 0, 0
	for c := 0; c < inst.NumColors; c++ {
		hi := offsets[c]
		for _, i := range byStart[lo:hi] {
			h.push(i)
		}
		lo = hi
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

// Solve runs Algorithm 1 followed by Algorithm 2 and returns the optimal
// coloring. The returned Solution always has Bottleneck == LowerBound,
// which is the paper's optimality result.
func (inst *Instance) Solve() (*Solution, error) {
	return inst.SolveStats(nil)
}

// SolveStats is Solve with an optional explain sink: when st is
// non-nil it accumulates the Algorithm 1 prune counters and the wall
// time of the bound and assignment phases. A nil st takes the exact
// untimed path of Solve.
func (inst *Instance) SolveStats(st *Stats) (*Solution, error) {
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	lb := inst.lowerBound(st)
	if st != nil {
		st.BoundNS += time.Since(t0).Nanoseconds()
	}
	if len(inst.Intervals) == 0 {
		return &Solution{Colors: nil, Bottleneck: 0, LowerBound: 0}, nil
	}
	var t1 time.Time
	if st != nil {
		t1 = time.Now()
	}
	colors, err := inst.Assign(lb)
	if err != nil {
		return nil, err
	}
	bn, err := inst.CheckColoring(colors)
	if st != nil {
		st.AssignNS += time.Since(t1).Nanoseconds()
	}
	if err != nil {
		return nil, err
	}
	return &Solution{Colors: colors, Bottleneck: bn, LowerBound: lb}, nil
}

// BruteForce exhaustively searches all colorings and returns the true
// optimal bottleneck. It is exponential in the number of intervals and
// exists to validate Solve in tests; instances beyond ~15 intervals or
// wide ranges will be slow.
func (inst *Instance) BruteForce() int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	hist := make([]int, inst.NumColors)
	best := k + 1
	var rec func(i, cur int)
	rec = func(i, cur int) {
		if cur >= best {
			return // prune: can only get worse
		}
		if i == k {
			best = cur
			return
		}
		iv := inst.Intervals[i]
		for c := iv.Start; c <= iv.End; c++ {
			hist[c]++
			next := cur
			if hist[c] > next {
				next = hist[c]
			}
			rec(i+1, next)
			hist[c]--
		}
	}
	rec(0, 0)
	return best
}
