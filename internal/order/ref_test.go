package order

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/bcp"
	"repro/internal/cube"
)

// This file keeps the orderers as they were before they moved onto one
// packed snapshot: X-Stat rescanning a used bitmap with separate
// distance passes, and I-Ordering reordering and repacking the set for
// every candidate. X-Stat's packed scan as it stood before its live
// list (refPackedXStat) is kept too. They are the references TestOrderMatchesReference and
// FuzzOrderMatchesReference hold the production orderers to. Distances
// are per-trit and the bound comes from a per-trit row walk, so no
// reference shares a kernel with the code it checks.

// refBottleneck is the optimal peak of the ordered set s: the
// Algorithm 1 bound of the per-trit row walk's intervals — per pin, one
// interval [p, q-1] for every two consecutive care bits at columns
// p < q with different values, forced unit toggles included.
func refBottleneck(s *cube.Set) (int, error) {
	var ivs []bcp.Interval
	for pin := 0; pin < s.Width; pin++ {
		last := -1
		for j, c := range s.Cubes {
			if !c[pin].IsCare() {
				continue
			}
			if last >= 0 && s.Cubes[last][pin] != c[pin] {
				ivs = append(ivs, bcp.Interval{Start: last, End: j - 1})
			}
			last = j
		}
	}
	inst, err := bcp.NewInstance(max(0, s.Len()-1), ivs)
	if err != nil {
		return 0, err
	}
	return inst.LowerBound(), nil
}

// refXUnion counts the pins where at least one of a, b is X.
func refXUnion(a, b cube.Cube) int {
	u := 0
	for pin := range a {
		if !a[pin].IsCare() || !b[pin].IsCare() {
			u++
		}
	}
	return u
}

// refXStat is the X-Stat chain: start at the cube with the most care
// bits, then repeatedly append the unused cube with the lowest HD to the
// tail, ties to the larger X-union, then to the lower index.
func refXStat(s *cube.Set) []int {
	n := s.Len()
	if n == 0 {
		return nil
	}
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if s.Cubes[i].CareCount() > s.Cubes[start].CareCount() {
			start = i
		}
	}
	perm := make([]int, 0, n)
	perm = append(perm, start)
	used[start] = true
	for len(perm) < n {
		tail := perm[len(perm)-1]
		best, bestHD, bestOverlap := -1, 0, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			hd := s.Cubes[tail].HammingDistance(s.Cubes[i])
			overlap := refXUnion(s.Cubes[tail], s.Cubes[i])
			if best == -1 || hd < bestHD || (hd == bestHD && overlap > bestOverlap) {
				best, bestHD, bestOverlap = i, hd, overlap
			}
		}
		perm = append(perm, best)
		used[best] = true
	}
	return perm
}

// refPackedXStat is the X-Stat chain as it ran on the packed snapshot
// before the live list: the unused cubes as an index list, each
// candidate's words loaded from the planes and its (hd, both) pair
// compared lexicographically by refNearest.
func refPackedXStat(p *cube.Packed) []int {
	n := p.Len()
	if n == 0 {
		return nil
	}
	start := 0
	for i := 1; i < n; i++ {
		if p.CareCount(i) > p.CareCount(start) {
			start = i
		}
	}
	rest := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != start {
			rest = append(rest, i)
		}
	}
	perm := []int{start}
	for len(rest) > 0 {
		at := refNearest(p, perm[len(perm)-1], rest)
		perm = append(perm, rest[at])
		rest = append(rest[:at], rest[at+1:]...)
	}
	return perm
}

// refNearest returns the position in rest of the cube closest to tail:
// the lowest guaranteed toggle count, then the largest X-union, then
// the lowest position, with the exact lexicographic prune.
func refNearest(p *cube.Packed, tail int, rest []int) int {
	ct, vt := p.CubeWords(tail)
	best, bestHD, bestBoth := 0, math.MaxInt, math.MaxInt
next:
	for at, i := range rest {
		ci, vi := p.CubeWords(i)
		hd, both := 0, 0
		for w, c := range ct {
			a := c & ci[w]
			both += bits.OnesCount64(a)
			hd += bits.OnesCount64((vt[w] ^ vi[w]) & a)
			if hd > bestHD || (hd == bestHD && both >= bestBoth) {
				continue next
			}
		}
		if hd < bestHD || (hd == bestHD && both < bestBoth) {
			best, bestHD, bestBoth = at, hd, both
		}
	}
	return best
}

// refInterleavedTrace is Algorithm 3 evaluating each candidate on the
// reordered set.
func refInterleavedTrace(s *cube.Set) ([]int, []Trace, error) {
	n := s.Len()
	if n <= 2 {
		return Identity(n), nil, nil
	}
	tp := Identity(n)
	sort.SliceStable(tp, func(a, b int) bool {
		return s.Cubes[tp[a]].XCount() < s.Cubes[tp[b]].XCount()
	})

	var traces []Trace
	bestPeak := -1
	var bestPerm []int
	for k := 1; k < n; k++ {
		perm := interleave(tp, k)
		reordered := s.Reorder(perm)
		peak, err := refBottleneck(reordered)
		if err != nil {
			return nil, nil, err
		}
		traces = append(traces, Trace{K: k, Peak: peak})
		if bestPeak == -1 || peak < bestPeak {
			bestPeak = peak
			bestPerm = perm
		} else {
			break
		}
	}
	return bestPerm, traces, nil
}

// refOptimalPeak is the exhaustive search evaluating each permutation
// on the reordered set.
func refOptimalPeak(s *cube.Set) (int, []int, error) {
	n := s.Len()
	if n <= 1 {
		return 0, Identity(n), nil
	}
	perm := Identity(n)
	best := -1
	var bestPerm []int
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			peak, err := refBottleneck(s.Reorder(perm))
			if err != nil {
				return err
			}
			if best == -1 || peak < best {
				best = peak
				bestPerm = append(bestPerm[:0], perm...)
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := rec(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, nil, err
	}
	return best, bestPerm, nil
}
