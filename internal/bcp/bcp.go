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
	"time"
)

// Stats is the solver's explain record: how hard Algorithm 1 worked
// and where its prunings bit, plus wall time split between the bound
// and the assignment. A nil *Stats costs the hot path nothing; core
// threads one through SolveStats when a fill runs with a trace sink.
// Counters accumulate, so one Stats can aggregate several solves.
type Stats struct {
	// The four counters sum over Algorithm 1's two passes, the seed
	// pass over short windows and the density-pruned full pass.
	// StartsScanned counts window starts a pass evaluated;
	// StartsSkipped counts starts pruned outright, by the empty-start
	// domination rule or, in the full pass, by the density bound.
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
// any interval falls outside the color range or is inverted, or if the
// instance has 2³¹-1 or more colors or intervals.
func NewInstance(numColors int, intervals []Interval) (*Instance, error) {
	if numColors < 0 {
		return nil, fmt.Errorf("bcp: negative color count %d", numColors)
	}
	if numColors >= maxKernel || len(intervals) >= maxKernel {
		return nil, fmt.Errorf("bcp: %d colors and %d intervals exceed the solver's limit %d",
			numColors, len(intervals), maxKernel-1)
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
// row over colors in O(C+k) memory for C colors and k intervals. The
// sweep runs twice, and exact prunings cut the naive O(C²) window count
// down to about O(k+C) on the instances DP-fill produces:
//
//   - Seed pass: the sweep over windows at most seedSpan colors wide,
//     the exact maximum over short windows. With ceil(k/C), the bound
//     of the full range, it seeds lb0, a valid lower bound.
//   - Density prune: T(i,j) <= S(i,j), the intervals that start in
//     [i,j]. A window can beat any lb >= lb0 only if S(i,j) > lb0·(j-i+1),
//     so the second, full pass evaluates start i only out to the last
//     such j, and folds it only as far as the smaller starts that read
//     its row reach (see densityHorizon). At every start its running lb
//     is at least a single pass's, so it visits a subset of the windows
//     one pass under the other prunings would.
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
// Worst case stays O(C²+k). The start buckets, the row and the horizons
// come from a sync.Pool, so the serving path's per-fill bound costs no
// steady-state allocation.
//
// inst must be valid: built by NewInstance, or valid by construction
// (every interval inside the color range, fewer than 2³¹-1 colors and
// intervals).
func (inst *Instance) LowerBound() int {
	return inst.lowerBound(nil)
}

// lowerBound is LowerBound with an optional explain sink.
func (inst *Instance) lowerBound(st *Stats) int {
	k := len(inst.Intervals)
	if k == 0 {
		return 0
	}
	sc := getScratch(inst.NumColors, k)
	defer putScratch(sc)
	sc.bucket(inst.Intervals)
	return sc.lowerBound(st)
}

// seedSpan is the widest window, in colors, the seed pass evaluates.
const seedSpan = 16

// dpvet:hot
// lowerBound is Algorithm 1 over the bucketed intervals, of which
// there must be at least one: the seed pass over short windows, then
// the full pass under the density prune it licenses. Counters sum over
// both passes.
func (sc *scratch) lowerBound(st *Stats) int {
	c, k := len(sc.t), len(sc.byStart)
	for i := range c {
		sc.hz[i] = int64(min(i+seedSpan-1, c-1))
	}
	var cnt Stats
	// The seed pass starts from ceil(k/C), so its suffix breaks bite
	// from the first start; it returns lb0.
	lb := sc.sweep((k+c-1)/c, &cnt)
	sc.densityHorizon(lb)
	lb = sc.sweep(lb, &cnt)
	if st != nil {
		st.Add(cnt)
	}
	return lb
}

// dpvet:hot
// densityHorizon fills hz[i], for each start i, with how far the full
// pass must evaluate and fold start i once lb0 is known.
//
// With g(x) = offsets[x] - lb0·x, S(i,j) > lb0·(j-i+1) exactly when
// g(j+1) > g(i), so reach(i), the last j at which a window from i can
// beat lb0, is one less than the last x > i with g(x) > g(i). The
// suffix maxima of g never increase with x, so one pass computing them
// turns that into a binary search per non-empty start. A smaller start
// i' reads the row out to reach(i'), so start i must fold out to hz(i),
// the largest reach over the non-empty starts <= i; hz(i) < i means no
// start at or below i reads a color start i contributes to, and the
// pass skips it.
//
// hz holds the suffix maxima at indices 1..C first. The forward pass
// overwrites hz[i] with the horizon only after its own search, which
// reads indices above i, and later searches read higher still. g is
// computed in int64: lb0·x can pass 2³¹ where int is 32 bits.
func (sc *scratch) densityHorizon(lb0 int) {
	off, hz := sc.offsets, sc.hz
	c := len(off) - 1
	g := func(x int) int64 { return int64(off[x]) - int64(lb0)*int64(x) }
	best := g(c)
	for x := c; x >= 1; x-- {
		best = max(best, g(x))
		hz[x] = best
	}
	far := int64(-1)
	for i := range c {
		if off[i+1] > off[i] {
			gi := g(i)
			// lo becomes the first x in (i, C] whose suffix max is at
			// most g(i), or C+1 if there is none.
			lo, hi := i+1, c+1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if hz[mid] > gi {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			far = max(far, int64(lo-2))
		}
		hz[i] = far
	}
}

// dpvet:hot
// sweep is one pass of the rolling-row maximization, evaluating and
// folding each start i only out to hz[i], from a running bound lb >= 1
// that is already a valid lower bound. It returns the raised bound,
// adds its counters to cnt once at the end so the traced and untraced
// paths run the same inner loops, and leaves t zero and delta zero.
//
// T(i,j) = T(i+1,j) + |{Start == i, End <= j}|. The second term is a
// running count p: the start's Ends are tallied per color into delta,
// and the j sweep adds delta[j] as it passes color j (zeroing it on
// the way), so no bucket is ever sorted.
func (sc *scratch) sweep(lb int, cnt *Stats) int {
	startsScanned, startsSkipped, windows, suffixBreaks := 0, 0, 0, 0
	off, byStart, t, delta, hz := sc.offsets, sc.byStart, sc.t, sc.delta, sc.hz
	c, k := len(t), len(byStart)
	// t[j] carries T(i,j) for the current window start i. Iterating i
	// downward lets us reuse T(i+1,j).
	for i := c - 1; i >= 0; i-- {
		bucket := byStart[off[i]:off[i+1]]
		end := int(hz[i])
		if len(bucket) == 0 || end < i {
			// An empty start is dominated by the window starting at the
			// next start; a start past its horizon feeds no later read.
			startsSkipped++
			continue
		}
		startsScanned++
		suffix := k - off[i] // number of intervals with Start >= i
		for _, e := range bucket {
			if int(e.end) <= end {
				delta[e.end]++
			}
		}
		// Evaluate windows [i,j] and fold the Start == i intervals
		// into t in the same sweep: count = T(i,j) = T(i+1,j) + p is
		// exactly the folded value the next (smaller) start needs, so
		// one read-modify-write of t[j] serves both. Folding past the
		// horizon is always sound (the horizon only licenses omitting
		// writes); the evaluation break is the binding one since
		// suffix(i) <= k.
		p := 0
		j := i
		for ; j <= end; j++ {
			window := j - i + 1
			if lb*window >= suffix {
				suffixBreaks++
				break // ceil(T/window) <= ceil(suffix/window) <= lb from here on
			}
			windows++
			p += int(delta[j])
			delta[j] = 0
			count := t[j] + p
			t[j] = count
			if count > lb*window {
				lb = (count + window - 1) / window
			}
		}
		// Keep folding out to the fold horizon, which can extend past
		// the evaluation break.
		for ; j <= end; j++ {
			if lb*(j-i+1) >= k {
				break
			}
			p += int(delta[j])
			delta[j] = 0
			t[j] += p
		}
		if j <= end {
			// Ends up to hz[i] were tallied but not all swept.
			for _, e := range bucket {
				delta[e.end] = 0
			}
		}
	}
	clear(t)
	cnt.StartsScanned += startsScanned
	cnt.StartsSkipped += startsSkipped
	cnt.WindowsScanned += windows
	cnt.SuffixBreaks += suffixBreaks
	return lb
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
// A color whose heap and bucket together fit in capacity, with no heap
// entry already late, is drained: EDF would pop every entry there, so
// all of them take the color and the heap empties without a sift. The
// heap every later color sees is the one popping would leave, so the
// coloring is container/heap's, tie for tie.
//
// The start buckets and the heap come from the same pool as
// LowerBound's, so the returned coloring is the call's only
// steady-state allocation. inst must be valid, as for LowerBound.
func (inst *Instance) Assign(capacity int) ([]int, error) {
	k := len(inst.Intervals)
	if k == 0 {
		return nil, nil
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bcp: capacity %d must be positive", capacity)
	}
	sc := getScratch(inst.NumColors, k)
	defer putScratch(sc)
	sc.bucket(inst.Intervals)
	colors := make([]int, k)
	if err := sc.assign(inst.Intervals, capacity, colors); err != nil {
		return nil, err
	}
	return colors, nil
}

// dpvet:hot
// assign is the Algorithm 2 sweep over the bucketed intervals: it
// writes the color of ivs[i] to colors[i]. Each bucket admits its
// intervals in ascending index order, the order EDF ties break in.
func (sc *scratch) assign(ivs []Interval, capacity int, colors []int) error {
	h := deadlineHeap(sc.heap)
	off, byStart := sc.offsets, sc.byStart
	assigned := 0
	for c := 0; c+1 < len(off); c++ {
		bucket := byStart[off[c]:off[c+1]]
		if len(h)+len(bucket) <= capacity && (len(h) == 0 || int(h[0].end) >= c) {
			// EDF would pop every entry at c, none late: color them all
			// and empty the heap, as popping everything would, with no
			// sifting.
			for _, e := range h {
				colors[e.idx] = c
			}
			for _, e := range bucket {
				colors[e.idx] = c
			}
			assigned += len(h) + len(bucket)
			h = h[:0]
			continue
		}
		for _, e := range bucket {
			h.push(e)
		}
		for picked := 0; picked < capacity && len(h) > 0; picked++ {
			e := h.pop()
			if int(e.end) < c {
				iv := ivs[e.idx]
				return fmt.Errorf("bcp: interval [%d,%d] missed its deadline at color %d (capacity %d too small)",
					iv.Start, iv.End, c, capacity)
			}
			colors[e.idx] = c
			assigned++
		}
	}
	if k := len(ivs); assigned != k {
		return fmt.Errorf("bcp: %d of %d intervals left unassigned", k-assigned, k)
	}
	return nil
}

// deadlineHeap is the min-heap of Algorithm 2, keyed by End. Its sift
// order is container/heap's exactly — a child moves up only when
// strictly smaller, and sift-down takes the right child only when it
// is strictly smaller than the left — so EDF ties break as they would
// under container/heap. Both sifts move a hole instead of swapping,
// which leaves the same final layout.
type deadlineHeap []entry

// dpvet:hot
// push adds e. The append never grows: the heap's capacity is the
// instance's interval count.
func (h *deadlineHeap) push(e entry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.end >= s[parent].end {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// dpvet:hot
// pop removes and returns the entry with the least End. The last entry
// moves to the root's hole and sifts down; the slot it vacated, just
// past the shrunk heap, holds a math.MaxInt32 sentinel, so the child
// select can read the right child unconditionally: a missing right
// child is never strictly smaller than the left one.
func (h *deadlineHeap) pop() entry {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	s[n].end = maxKernel
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		// j+1 <= n always; r < l exactly when r-l is negative.
		j += int(uint64(int64(s[j+1].end)-int64(s[j].end)) >> 63)
		if s[j].end >= x.end {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
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
	k := len(inst.Intervals)
	if k == 0 {
		if st != nil {
			st.BoundNS += time.Since(t0).Nanoseconds()
		}
		return &Solution{Colors: nil, Bottleneck: 0, LowerBound: 0}, nil
	}
	// One bucketing serves both algorithms.
	sc := getScratch(inst.NumColors, k)
	defer putScratch(sc)
	sc.bucket(inst.Intervals)
	lb := sc.lowerBound(st)
	var t1 time.Time
	if st != nil {
		t1 = time.Now()
		st.BoundNS += t1.Sub(t0).Nanoseconds()
	}
	colors := make([]int, k)
	if err := sc.assign(inst.Intervals, lb, colors); err != nil {
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
