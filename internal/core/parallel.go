package core

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/cube"
)

// Options tunes how a DP-fill executes. The algorithm and its output are
// identical for every setting; only the schedule changes.
type Options struct {
	// Shards is the number of row shards the stretch scan fans out
	// across.
	// 0 picks GOMAXPROCS; 1 runs the scan inline (no goroutines).
	Shards int
	// Trace, when non-nil, receives the fill's explain record:
	// per-stage wall times, BCP prune counters and arena reuse. The
	// sink is written by the fill that receives it and must not be
	// shared across concurrent fills. nil (the default) skips all
	// timing.
	Trace *Trace
}

// smallScanCutoff is the matrix size (trits) below which sharding the
// row scan costs more in goroutine startup than it saves; such sets run
// on one shard regardless of Options.Shards = 0 defaulting.
const smallScanCutoff = 1 << 15

// resolveShards clamps the shard count to something sensible for an
// m-row matrix of the given size.
func resolveShards(requested, rows, trits int) int {
	s := requested
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
		if trits < smallScanCutoff {
			s = 1
		}
	}
	if s > rows {
		s = rows
	}
	if s < 1 {
		s = 1
	}
	return s
}

// scanSharded runs the stretch scan over all of pr's rows, fanned out
// across contiguous row shards, appending the toggle intervals to dst
// in row order. Rows are independent (each pin's X-stretch scan
// touches only that pin's packed planes), so shards run concurrently
// and their interval lists concatenate in shard order = row order —
// entry for entry identical to the serial per-trit reduction's list
// (Map in mapping_ref_test.go).
func scanSharded(pr *cube.PackedRows, shards int, dst []ToggleInterval) []ToggleInterval {
	rows := pr.Width
	if rows == 0 {
		return dst
	}
	if shards <= 1 {
		return scanRowsAppend(dst, pr, 0, rows)
	}
	perShard := make([][]ToggleInterval, shards)
	chunk := (rows + shards - 1) / shards
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		lo, hi := sh*chunk, (sh+1)*chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(sh, lo, hi int) {
			defer wg.Done()
			perShard[sh] = scanRowsAppend(nil, pr, lo, hi)
		}(sh, lo, hi)
	}
	wg.Wait()
	for _, p := range perShard {
		dst = append(dst, p...)
	}
	return dst
}

// dpvet:hot
// scanRowsAppend maps rows [lo, hi) on the packed representation:
// pre-fills their fillable stretches in pr's planes and appends their
// toggle intervals to dst in row order.
func scanRowsAppend(dst []ToggleInterval, pr *cube.PackedRows, lo, hi int) []ToggleInterval {
	for i := lo; i < hi; i++ {
		mapRowPacked(i, pr, &dst)
	}
	return dst
}

// dpvet:hot
// mapRowPacked is the reference mapRow (mapping_ref_test.go) on the
// packed row planes: one pass over the row's care words, iterating set
// bits with TrailingZeros64, with stretch pre-fills as word ORs — an X
// run costs one word op per 64 columns instead of 64 per-trit loop
// steps. The fill rules are identical to mapRow's.
func mapRowPacked(row int, pr *cube.PackedRows, out *[]ToggleInterval) {
	n := pr.N
	if n == 0 {
		return
	}
	care, val := pr.RowWords(row)
	prev := -1 // last care column seen, -1 before the first
	var prevVal cube.Trit
	for w, cur := range care {
		for cur != 0 {
			j := w*64 + bits.TrailingZeros64(cur)
			cur &= cur - 1
			jv := cube.Zero
			if val[w]&(1<<(j%64)) != 0 {
				jv = cube.One
			}
			switch {
			case prev < 0:
				// Leading Xs copy the first care bit (no toggle
				// possible).
				pr.FillSpan(row, 0, j-1, jv)
			case jv == prevVal:
				// Equal boundaries: pre-fill with the common value.
				pr.FillSpan(row, prev+1, j-1, prevVal)
			default:
				// Unequal boundaries: one toggle somewhere in cycles
				// prev..j-1. Keep the Xs; reconstruction fills them.
				*out = append(*out, ToggleInterval{
					Row: row, LeftCol: prev, RightCol: j, LeftVal: prevVal,
				})
			}
			prev, prevVal = j, jv
		}
	}
	if prev < 0 {
		// Fully-X row: any constant works; use 0.
		pr.FillSpan(row, 0, n-1, cube.Zero)
		return
	}
	// Trailing Xs copy the last care bit.
	pr.FillSpan(row, prev+1, n-1, prevVal)
}
