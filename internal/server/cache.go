package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/cube"
)

// cachedFill is one memoized fill outcome. The cache owns its entries
// outright: Put stores a deep copy and Get hands one back, so no live
// plane or slice pointer is ever shared between the cache and a
// response being served — a handler (present or future) mutating what
// it serializes cannot poison the answer every later request gets.
//
// The filled matrix is kept cube-major at one bit per trit (a fill
// leaves no X to mark), the form an answer that carries cubes is
// written from. An omit_cubes DP fill builds no matrix, so its entry
// has no Filled and answers only omit_cubes requests.
type cachedFill struct {
	Filled  *cube.Filled
	Perm    []int
	Peak    int
	Total   int
	Profile []int
	// Explain is the stage trace of the run that produced the entry, so
	// a debug request answered from the cache still explains the cost
	// of computing its result (the response's Cached flag marks it as
	// the original run's trace).
	Explain *core.Trace
}

// clone deep-copies the entry, nil sub-fields preserved.
func (e *cachedFill) clone() *cachedFill {
	out := &cachedFill{
		Perm:    slices.Clone(e.Perm),
		Peak:    e.Peak,
		Total:   e.Total,
		Profile: slices.Clone(e.Profile),
	}
	if e.Filled != nil {
		f := *e.Filled
		f.Val = slices.Clone(f.Val)
		out.Filled = &f
	}
	if e.Explain != nil {
		tr := *e.Explain
		out.Explain = &tr
	}
	return out
}

// fillDigest keys the cache on everything that determines a fill
// outcome: the exact cube matrix, the algorithm pair, and the seed
// (R-fill and ISA are seed-dependent). Two requests with the same
// digest are guaranteed the same fully-specified output, so repeated
// pattern sets skip recomputation entirely.
//
// The matrix is hashed as the snapshot's raw care and value planes
// after a header with its shape: the planes are canonical across the
// x/X/- spellings, as the rendered text was, so the same requests share
// a key. The key never leaves the process.
func fillDigest(p *cube.Packed, orderer, filler string, seed int64) string {
	h := sha256.New()
	// "w=%d|n=%d|ord=%s|fill=%s|seed=%d\n", in one buffer rather than
	// through fmt, which boxes each argument.
	hdr := make([]byte, 0, 64)
	hdr = strconv.AppendInt(append(hdr, "w="...), int64(p.Width), 10)
	hdr = strconv.AppendInt(append(hdr, "|n="...), int64(p.Len()), 10)
	hdr = append(append(append(append(hdr, "|ord="...), orderer...), "|fill="...), filler...)
	hdr = strconv.AppendInt(append(hdr, "|seed="...), seed, 10)
	h.Write(append(hdr, '\n'))
	_ = p.WritePlanes(h) // a hash.Hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// lruCache is a fixed-capacity, mutex-guarded LRU over fill digests.
// A nil *lruCache is valid and never hits, so disabling the cache is
// just not constructing one.
type lruCache struct {
	mu  sync.Mutex
	cap int // immutable after construction
	// dpvet:guardedby mu
	order *list.List // front = most recently used; values are *lruEntry
	// dpvet:guardedby mu
	byKey map[string]*list.Element
}

type lruEntry struct {
	key string
	val *cachedFill
}

// newLRUCache returns a cache holding up to capacity entries, or nil
// (a never-hitting cache) when capacity <= 0.
func newLRUCache(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// Get returns a private deep copy of the entry for key and marks it
// most recently used: the caller may do anything with the result. A
// lookup that needs the cubes misses an entry without them.
func (c *lruCache) Get(key string, cubes bool) (*cachedFill, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok || cubes && el.Value.(*lruEntry).val.Filled == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val.clone(), true
}

// Put inserts or refreshes key with a deep copy of v — the caller
// keeps sole ownership of what it passed in — evicting the least
// recently used entry when the cache is full. An entry without cubes
// never replaces one with them.
func (c *lruCache) Put(key string, v *cachedFill) {
	if c == nil {
		return
	}
	v = v.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		if e := el.Value.(*lruEntry); v.Filled != nil || e.val.Filled == nil {
			e.val = v
		}
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, val: v})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
