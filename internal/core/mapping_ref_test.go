package core

import (
	"fmt"

	"repro/internal/bcp"
	"repro/internal/cube"
)

// This file keeps the per-trit reduction of §V-C and its reconstruction
// as test oracles: Map walks each row as trits on a cloned set,
// fillMapping solves it and Reconstruct fills the set trit by trit.
// FillPacked replaced them on every production path; the differential
// tests hold it, and the FillWith edge over it, to these references.

// Mapping is the outcome of the cube→BCP reduction: a partially filled
// set in which only unequal-boundary stretches remain as Xs, plus the
// interval list describing them.
type Mapping struct {
	// Prefilled is the set after step 2 of the package comment. All
	// remaining X bits
	// belong to exactly one ToggleInterval.
	Prefilled *cube.Set
	// Intervals lists the toggle intervals, including unit intervals for
	// forced toggles (which contain no X bits but constrain the peak).
	Intervals []ToggleInterval
	// NumCycles is n-1: the number of consecutive-vector boundaries.
	NumCycles int
}

// Map performs the reduction of §V-C on a copy of the input set. The
// input set is not modified.
//
// Map is the serial per-trit reference implementation; MapSharded runs
// the kernel's packed, sharded scan and produces identical output
// (TestMapShardedMatchesSerial pins the equivalence).
func Map(s *cube.Set) *Mapping {
	out := s.Clone()
	n := out.Len()
	m := &Mapping{Prefilled: out, NumCycles: maxInt(0, n-1)}

	for i := 0; i < out.Width; i++ {
		row := out.Row(i)
		mapRow(i, row, m)
		out.SetRow(i, row)
	}
	return m
}

// mapRow pre-fills the fillable stretches of one row in place and
// appends its toggle intervals (including forced unit toggles) to m.
func mapRow(rowIdx int, row []cube.Trit, m *Mapping) {
	n := len(row)
	// Find the care positions.
	first := -1
	for j := 0; j < n; j++ {
		if row[j] != cube.X {
			first = j
			break
		}
	}
	if first == -1 {
		// Fully-X row: any constant works; use 0.
		for j := range row {
			row[j] = cube.Zero
		}
		return
	}
	// Leading Xs copy the first care bit (no toggle possible).
	for j := 0; j < first; j++ {
		row[j] = row[first]
	}
	// Walk consecutive care-bit pairs.
	prev := first
	for j := first + 1; j < n; j++ {
		if row[j] == cube.X {
			continue
		}
		if row[prev] == row[j] {
			// Equal boundaries: pre-fill with the common value.
			for t := prev + 1; t < j; t++ {
				row[t] = row[prev]
			}
		} else {
			// Unequal boundaries: one toggle somewhere in cycles
			// prev..j-1. Keep the Xs; reconstruction fills them.
			m.Intervals = append(m.Intervals, ToggleInterval{
				Row: rowIdx, LeftCol: prev, RightCol: j, LeftVal: row[prev],
			})
		}
		prev = j
	}
	// Trailing Xs copy the last care bit.
	for j := prev + 1; j < n; j++ {
		row[j] = row[prev]
	}
}

// fillMapping solves and reconstructs a completed reduction on the
// unpacked representation. It is the per-trit reference path FillWith
// is differentially tested against (TestFillMatchesReference), and the
// back half of Map-based callers.
func fillMapping(mp *Mapping) (*cube.Set, *Result, error) {
	intervals := make([]bcp.Interval, len(mp.Intervals))
	forced := 0
	for i, ti := range mp.Intervals {
		intervals[i] = ti.Interval()
		if ti.RightCol == ti.LeftCol+1 {
			forced++
		}
	}
	inst, err := bcp.NewInstance(mp.NumCycles, intervals)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building BCP instance: %w", err)
	}
	sol, err := inst.Solve()
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving BCP: %w", err)
	}
	filled := Reconstruct(mp, sol.Colors)
	peak, total, profile := filled.ToggleStats()
	res := &Result{
		Peak:         peak,
		Total:        total,
		LowerBound:   sol.LowerBound,
		NumIntervals: len(intervals),
		ForcedUnit:   forced,
		Profile:      profile,
	}
	if res.Peak != sol.LowerBound {
		return nil, nil, fmt.Errorf("core: reconstruction peak %d != lower bound %d",
			res.Peak, sol.LowerBound)
	}
	return filled, res, nil
}

// Reconstruct applies §V-D: given the mapping and a BCP coloring (one
// color per interval, in the order of mp.Intervals), it fills the
// remaining Xs and returns the fully specified set. The toggle of
// interval colored j lands between vectors j and j+1.
func Reconstruct(mp *Mapping, colors []int) *cube.Set {
	out := mp.Prefilled.Clone()
	for i, ti := range mp.Intervals {
		j := colors[i]
		left := ti.LeftVal
		right := left.Neg()
		for col := ti.LeftCol + 1; col <= j; col++ {
			out.Cubes[col][ti.Row] = left
		}
		for col := j + 1; col < ti.RightCol; col++ {
			out.Cubes[col][ti.Row] = right
		}
	}
	return out
}

// MapSharded is Map on the bit-packed row representation, fanned out
// across contiguous row shards. Rows are independent (each pin's
// X-stretch scan touches only that pin), so shards run concurrently and
// their interval lists are concatenated in shard order, which is row
// order — the result is identical, entry for entry, to the serial Map.
// shards <= 0 picks a machine-sized default.
func MapSharded(s *cube.Set, shards int) *Mapping {
	n := s.Len()
	pr := cube.PackRows(s)
	intervals := scanSharded(pr, resolveShards(shards, s.Width, s.Width*n), nil)
	return &Mapping{NumCycles: maxInt(0, n-1), Intervals: intervals, Prefilled: pr.Unpack()}
}
