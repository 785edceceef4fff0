package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bcp"
)

// fillArena holds the reusable per-job scratch of the fill hot path:
// the interval lists the scan and the BCP reduction grow, and
// BottleneckOrder's per-pin sweep state. A sync.Pool recycles arenas
// across fills and bounds so a serving process under steady load
// reaches a fixed working set instead of regrowing them on every
// request.
//
// Nothing reachable from a returned value may live in the arena: the
// filled planes, Result.Profile and BCP colorings are always freshly
// allocated.
type fillArena struct {
	ivs    []ToggleInterval
	bcpIvs []bcp.Interval
	// BottleneckOrder: used marks the cubes a permutation has named;
	// seen, lastVal and lastCol are the sweep's per-pin state.
	used, seen, lastVal []uint64
	lastCol             []int
}

// arenaGets counts arena checkouts and arenaMisses the subset that
// found the pool empty (a fresh allocation); hits = gets - misses.
// Through PoolStats they feed the worker's dpfill_go_arena_hits_total
// and dpfill_go_arena_misses_total families, making the pool's
// steady-state claim ("serving load reuses scratch") observable.
var (
	arenaGets   atomic.Uint64
	arenaMisses atomic.Uint64
)

var arenaPool = sync.Pool{New: func() any {
	arenaMisses.Add(1)
	return new(fillArena)
}}

func getArena() *fillArena {
	arenaGets.Add(1)
	return arenaPool.Get().(*fillArena)
}

// PoolStats reports the fill arena pool's cumulative hit and miss
// counts. Misses are loaded first: a get increments arenaGets before
// any miss it causes, so gets read afterwards can only overcount hits,
// never underflow.
func PoolStats() (hits, misses uint64) {
	m := arenaMisses.Load()
	g := arenaGets.Load()
	return g - m, m
}

func putArena(a *fillArena) {
	a.ivs = a.ivs[:0]
	a.bcpIvs = a.bcpIvs[:0]
	arenaPool.Put(a)
}
