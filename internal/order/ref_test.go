package order

import (
	"sort"

	"repro/internal/bcp"
	"repro/internal/core"
	"repro/internal/cube"
)

// This file keeps the orderers as they were before they moved onto one
// packed snapshot: X-Stat rescanning a used bitmap with separate
// distance passes, and I-Ordering reordering and repacking the set for
// every candidate. They are the references TestOrderMatchesReference and
// FuzzOrderMatchesReference hold the production orderers to. Distances
// are per-trit and the bound comes from the per-trit reduction core.Map,
// so no reference shares a kernel with the code it checks.

// refBottleneck is the optimal peak of the ordered set s from the
// per-trit row walk of core.Map and the Algorithm 1 bound.
func refBottleneck(s *cube.Set) (int, error) {
	mp := core.Map(s)
	ivs := make([]bcp.Interval, len(mp.Intervals))
	for i, ti := range mp.Intervals {
		ivs[i] = ti.Interval()
	}
	inst, err := bcp.NewInstance(mp.NumCycles, ivs)
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
