// Package core implements DP-fill, the paper's primary contribution: an
// optimal X-filling algorithm that minimizes the peak number of input
// toggles between consecutive test cubes of an ordered cube set.
//
// The algorithm (§V–§VI of the paper):
//
//  1. View the cube sequence T1..Tn as an m×n trit matrix A whose rows
//     are input pins.
//  2. Pre-fill every equal-boundary X stretch (0X..X0 / 1X..X1) with its
//     boundary value, and every edge stretch (leading/trailing Xs) with
//     its single neighbouring care bit; fully-X rows become constant 0.
//     None of these can ever force a toggle, so an optimal solution with
//     these choices exists (§V-C preprocessing).
//  3. Every unequal-boundary stretch (0X..X1 / 1X..X0) with care bits at
//     columns p < q must toggle exactly once somewhere in cycles
//     p..q-1 (cycle j = boundary between vectors j and j+1). It becomes
//     the BCP interval [p, q-1]. Adjacent differing care bits (q = p+1)
//     yield the unit interval [p,p]: a forced toggle. Folding forced
//     toggles into the BCP as unit intervals is what lets Algorithm 2's
//     optimality argument cover the whole objective.
//  4. Solve the Bottleneck Coloring Problem optimally (package bcp) and
//     reconstruct: an interval colored j fills columns p..j with the left
//     care value and columns j+1..q with the right care value.
//
// The resulting peak equals the BCP lower bound, which is provably the
// minimum achievable peak toggle count for the given ordering.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bcp"
	"repro/internal/cube"
)

// ToggleInterval records one unequal-boundary stretch and its BCP
// interval. LeftCol/RightCol are the bounding care-bit columns in the
// cube sequence; the BCP interval is [LeftCol, RightCol-1] in cycle
// space.
type ToggleInterval struct {
	// Row is the pin the stretch lives on.
	Row int
	// LeftCol and RightCol are the columns of the bounding care bits,
	// LeftCol < RightCol.
	LeftCol, RightCol int
	// LeftVal is the care value at LeftCol (the value at RightCol is its
	// complement).
	LeftVal cube.Trit
}

// Interval returns the BCP interval of cycles in which the stretch's
// single toggle may be placed.
func (ti ToggleInterval) Interval() bcp.Interval {
	return bcp.Interval{Start: ti.LeftCol, End: ti.RightCol - 1}
}

// Result summarizes a DP-fill run.
type Result struct {
	// Peak is the achieved peak toggle count — optimal for the ordering.
	Peak int
	// Total is the filled set's total toggle count over all cycles.
	Total int
	// LowerBound is the Algorithm 1 bound; always equals Peak.
	LowerBound int
	// NumIntervals is the number of BCP intervals, counting forced unit
	// toggles.
	NumIntervals int
	// ForcedUnit is how many of the intervals were forced (adjacent
	// differing care bits with no X between them).
	ForcedUnit int
	// Profile is the per-cycle toggle count of the filled set.
	Profile []int
}

// FillPacked runs the complete DP-fill algorithm on the cubes of the
// snapshot p applied in perm order (nil: snapshot order) and returns
// the filled matrix as packed row planes (cube j is column j): a fully
// specified completion achieving the minimum possible peak toggle
// count for that ordering, together with the run statistics, whose
// Peak, Total and Profile are counted once, on those planes. The
// planes are freshly allocated and owned by the caller; p is not
// modified. It is the one fill kernel: a served request parsed into a
// snapshot is ordered and filled without a cube set in between
// (CountPacked serves one that does not want the cubes).
//
// The whole hot path is word-parallel on the bit-packed row planes:
// the row build from p's words (Packed.Rows), the stretch-extraction
// scan (fanned out across opt.Shards row shards), the §V-D
// reconstruction (two word-OR spans per interval instead of a
// per-trit loop), and the toggle-profile verification (XOR-shift +
// popcount). The interval scratch comes from a sync.Pool arena, so
// steady serving load reuses it instead of regrowing it per fill.
// Every schedule produces byte-identical output, pinned against the
// per-trit reference path by differential tests.
//
// With opt.Trace set, the run's per-stage wall times, BCP prune
// counters and arena reuse land in the sink; each stage's clock reads
// sit behind a nil check so the untraced hot path stays
// branch-predictable. The trace's pack stage covers the row build.
func FillPacked(p *cube.Packed, perm []int, opt Options) (*cube.PackedRows, *Result, error) {
	tr := opt.Trace
	var start, mark time.Time
	if tr != nil {
		start = time.Now()
		mark = start
	}
	ar := getArena()
	defer putArena(ar)
	reused := cap(ar.bcpIvs) > 0
	pr := p.Rows(perm)
	n, rows := pr.N, pr.Width
	if tr != nil {
		now := time.Now()
		tr.PackNS += now.Sub(mark).Nanoseconds()
		mark = now
	}
	shards := resolveShards(opt.Shards, rows, rows*n)
	ar.ivs = scanSharded(pr, shards, ar.ivs[:0])
	intervals := ar.ivs

	bcpIvs := ar.bcpIvs[:0]
	for _, ti := range intervals {
		bcpIvs = append(bcpIvs, ti.Interval())
	}
	ar.bcpIvs = bcpIvs
	forced := unitIntervals(bcpIvs)
	if tr != nil {
		tr.ScanNS += time.Since(mark).Nanoseconds()
	}
	sol, err := solve(n, bcpIvs, tr)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		mark = time.Now()
	}

	// §V-D reconstruction on the packed planes: the interval colored j
	// toggles between vectors j and j+1, so columns LeftCol+1..j take
	// the left care value and j+1..RightCol-1 its complement.
	for i, ti := range intervals {
		j := sol.Colors[i]
		pr.FillSpan(ti.Row, ti.LeftCol+1, j, ti.LeftVal)
		pr.FillSpan(ti.Row, j+1, ti.RightCol-1, ti.LeftVal.Neg())
	}

	res, err := newResult(pr.ToggleProfile(), sol, len(bcpIvs), forced)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.ReconstructNS += time.Since(mark).Nanoseconds()
		tr.finish(res, rows, n, shards, reused, start)
	}
	return pr, res, nil
}

// FillWith is FillPacked on a cube set, for callers that hold and want
// trits: s is packed, filled in the order given and the planes
// unpacked into a fresh set. The input set is not modified. The trace
// charges the pack of s to the pack stage, next to the row build, and
// the unpack to the unpack stage.
func FillWith(s *cube.Set, opt Options) (*cube.Set, *Result, error) {
	tr := opt.Trace
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	p := cube.Pack(s)
	if tr != nil {
		tr.PackNS += time.Since(start).Nanoseconds()
	}
	pr, res, err := FillPacked(p, nil, opt)
	if err != nil {
		return nil, nil, err
	}
	var mark time.Time
	if tr != nil {
		mark = time.Now()
	}
	out := pr.Unpack()
	if tr != nil {
		tr.UnpackNS += time.Since(mark).Nanoseconds()
		tr.seal(time.Since(start).Nanoseconds())
	}
	return out, res, nil
}

// CountPacked returns the Result FillPacked returns for the cubes of p
// in perm order (nil: snapshot order), without building the filled
// matrix. Every interval toggles exactly once, at the cycle its colour
// names, and pre-filled stretches never toggle, so the per-cycle
// profile of the filled set is the histogram of the Algorithm 2
// colouring: peak, total and profile follow from it, and the peak is
// still checked against the Algorithm 1 bound.
//
// The intervals come from BottleneckOrder's cube-major sweep, not the
// row scan, so they are listed in another order; the histogram does
// not depend on it, since EDF only swaps which of two equal-deadline
// entries it pops at a colour. The trace's scan stage is the sweep,
// reconstruct is the histogram, and pack stays zero.
func CountPacked(p *cube.Packed, perm []int, opt Options) (*Result, error) {
	tr := opt.Trace
	var start, mark time.Time
	if tr != nil {
		start = time.Now()
	}
	ar := getArena()
	defer putArena(ar)
	reused := cap(ar.bcpIvs) > 0
	ivs, err := ar.sweep(p, perm)
	if err != nil {
		return nil, err
	}
	forced := unitIntervals(ivs)
	n := p.Len()
	if tr != nil {
		tr.ScanNS += time.Since(start).Nanoseconds()
	}
	sol, err := solve(n, ivs, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		mark = time.Now()
	}
	var profile []int
	if n >= 2 {
		inst := bcp.Instance{NumColors: n - 1, Intervals: ivs}
		profile = inst.Histogram(sol.Colors)
	}
	res, err := newResult(profile, sol, len(ivs), forced)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.ReconstructNS += time.Since(mark).Nanoseconds()
		tr.finish(res, p.Width, n, 1, reused, start)
	}
	return res, nil
}

// solve runs Algorithms 1 and 2 on the intervals of an n-cube fill,
// whose colours are its n-1 cycles. With tr set, the solver's prune
// counters and its bound/assign clocks land in the trace; the sliver
// around them (instance validation) is left to OtherNS.
func solve(n int, ivs []bcp.Interval, tr *Trace) (*bcp.Solution, error) {
	inst, err := bcp.NewInstance(maxInt(0, n-1), ivs)
	if err != nil {
		return nil, fmt.Errorf("core: building BCP instance: %w", err)
	}
	var solveStats bcp.Stats
	var bcpStats *bcp.Stats
	if tr != nil {
		bcpStats = &solveStats
	}
	sol, err := inst.SolveStats(bcpStats)
	if err != nil {
		return nil, fmt.Errorf("core: solving BCP: %w", err)
	}
	if tr != nil {
		tr.BCP.Add(solveStats)
		tr.BoundNS += solveStats.BoundNS
		tr.AssignNS += solveStats.AssignNS
	}
	return sol, nil
}

// newResult assembles a fill's Result from its toggle profile and BCP
// solution, and refuses one whose peak is not the lower bound.
func newResult(profile []int, sol *bcp.Solution, intervals, forced int) (*Result, error) {
	peak, total := tally(profile)
	if peak != sol.LowerBound {
		// Cannot happen if the optimality theorem holds; guard anyway so
		// corruption is loud rather than silently sub-optimal.
		return nil, fmt.Errorf("core: reconstruction peak %d != lower bound %d",
			peak, sol.LowerBound)
	}
	return &Result{
		Peak:         peak,
		Total:        total,
		LowerBound:   sol.LowerBound,
		NumIntervals: intervals,
		ForcedUnit:   forced,
		Profile:      profile,
	}, nil
}

// dpvet:hot
// tally returns the peak and the total of a toggle profile.
func tally(profile []int) (peak, total int) {
	for _, v := range profile {
		peak = max(peak, v)
		total += v
	}
	return peak, total
}

// dpvet:hot
// unitIntervals counts the one-colour intervals among ivs: the forced
// toggles between adjacent differing care bits.
func unitIntervals(ivs []bcp.Interval) int {
	unit := 0
	for _, iv := range ivs {
		if iv.Start == iv.End {
			unit++
		}
	}
	return unit
}

// Bottleneck computes the optimal peak toggle count of the ordered set
// s without materializing the filled set: BottleneckOrder on a fresh
// snapshot of s, in the order given.
func Bottleneck(s *cube.Set) (int, error) {
	perm := make([]int, s.Len())
	for i := range perm {
		perm[i] = i
	}
	return BottleneckOrder(cube.Pack(s), perm)
}

// BottleneckOrder computes the optimal peak toggle count of the cubes
// of p applied in perm order (nil: snapshot order) — what Bottleneck
// returns for s.Reorder(perm) when p = cube.Pack(s) — without
// reordering or repacking any trit. It is the evaluation primitive
// Algorithm 3 (I-Ordering) calls once per candidate interleaving: the
// orderer packs once and every candidate is one sweep over the care
// bits plus the Algorithm 1 bound. Scratch comes from the fill arena
// pool, so a warm call allocates nothing.
func BottleneckOrder(p *cube.Packed, perm []int) (int, error) {
	ar := getArena()
	defer putArena(ar)
	ivs, err := ar.sweep(p, perm)
	if err != nil {
		return 0, err
	}
	// Every interval lies in [0, n-2] by construction (0 <= last < t <=
	// n-1), so the instance needs no validation pass.
	inst := bcp.Instance{NumColors: maxInt(0, p.Len()-1), Intervals: ivs}
	return inst.LowerBound(), nil
}

// sweep checks that perm (nil: snapshot order) is a permutation of p's
// cubes and returns the BCP intervals of the cubes applied in that
// order, held in the arena. It is the interval source of both
// BottleneckOrder and CountPacked.
//
// The sweep walks the cubes in perm order and keeps each pin's last
// care column and value; a pin whose value flips at column t adds the
// BCP interval [last, t-1]. That is exactly the interval multiset of
// the row scan FillPacked runs (consecutive care bits of a row with
// unequal values, forced unit toggles included), listed cube-major
// instead of row-major.
func (ar *fillArena) sweep(p *cube.Packed, perm []int) ([]bcp.Interval, error) {
	n := p.Len()
	if perm != nil && len(perm) != n {
		return nil, fmt.Errorf("core: order of length %d for %d cubes", len(perm), n)
	}
	ar.used = zeroWords(ar.used, (n+63)/64)
	for t, c := range perm {
		if c < 0 || c >= n || ar.used[c/64]&(1<<(c%64)) != 0 {
			return nil, fmt.Errorf("core: order is not a permutation: entry %d is %d", t, c)
		}
		ar.used[c/64] |= 1 << (c % 64)
	}
	ar.seen = zeroWords(ar.seen, p.Words)
	ar.lastVal = zeroWords(ar.lastVal, p.Words)
	if cap(ar.lastCol) < p.Width {
		ar.lastCol = make([]int, p.Width)
	}
	ar.bcpIvs = sweepOrder(ar.bcpIvs[:0], p, perm, ar.lastCol[:p.Width], ar.seen, ar.lastVal)
	return ar.bcpIvs, nil
}

// dpvet:hot
// sweepOrder appends to dst the BCP intervals of p's cubes applied in
// perm order (nil: snapshot order). lastCol[pin] is the column of the
// pin's last care bit and is meaningful only where the pin's bit of
// seen is set; lastVal holds that care bit's value. seen and lastVal
// must start zeroed. Value bits are a subset of care bits, so the flip
// test and the value update are word-parallel; only care bits touch
// lastCol, and only flips append.
func sweepOrder(dst []bcp.Interval, p *cube.Packed, perm, lastCol []int, seen, lastVal []uint64) []bcp.Interval {
	seen = seen[:p.Words]
	lastVal = lastVal[:p.Words]
	for t := range p.Len() {
		c := t
		if perm != nil {
			c = perm[t]
		}
		care, val := p.CubeWords(c)
		for w, cw := range care {
			if cw == 0 {
				continue
			}
			vw := val[w]
			for f := (vw ^ lastVal[w]) & cw & seen[w]; f != 0; f &= f - 1 {
				pin := w*64 + bits.TrailingZeros64(f)
				dst = append(dst, bcp.Interval{Start: lastCol[pin], End: t - 1})
			}
			for b := cw; b != 0; b &= b - 1 {
				lastCol[w*64+bits.TrailingZeros64(b)] = t
			}
			seen[w] |= cw
			lastVal[w] = lastVal[w]&^cw | vw
		}
	}
	return dst
}

// zeroWords returns buf resized to n zeroed words, reusing its backing
// array when large enough.
func zeroWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
