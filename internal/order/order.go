// Package order implements the test-vector orderings evaluated in the
// paper: the ATPG tool order (Table II), the X-Stat ordering of [22]
// (Table III), the proposed interleaved I-Ordering of Algorithm 3
// (Table IV) and the ISA ordering of [20] (Table V baseline).
//
// An ordering maps a cube set to a permutation; the cubes themselves are
// never modified. Peak toggles are then measured on the reordered set
// after X-filling, so orderings and fills compose freely.
package order

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cube"
)

// Orderer is a named test-vector ordering algorithm on a packed
// snapshot, the one representation the fill stack carries.
type Orderer interface {
	// Name returns the short name used in tables.
	Name() string
	// OrderPacked returns a permutation perm such that the cubes of p
	// applied in perm order are the proposed application order.
	OrderPacked(p *cube.Packed) ([]int, error)
}

// Func is an orderer defined on a packed snapshot. Every orderer in
// this package is one: Tool, X-Stat, I-Ordering and ISA.
type Func struct {
	OrderName string
	F         func(*cube.Packed) ([]int, error)
}

// Name implements Orderer.
func (f Func) Name() string { return f.OrderName }

// OrderPacked implements Orderer.
func (f Func) OrderPacked(p *cube.Packed) ([]int, error) { return f.F(p) }

// Order orders the cubes of s: it packs s and delegates. It is the
// edge for callers that hold a cube set and order it once.
func (f Func) Order(s *cube.Set) ([]int, error) { return f.F(cube.Pack(s)) }

// Identity returns the identity permutation of length n.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Tool returns the "tool ordering": the order in which the ATPG emitted
// the patterns, i.e. the identity permutation. This is the Table II
// baseline (the paper's TetraMax order; our ATPG's generation order).
func Tool() *Func { return toolOrder }

// toolOrder, xstatOrder and iOrder are the stateless orderers, built
// once and shared, so resolving one per request allocates nothing.
// Callers must not modify them.
var (
	toolOrder = &Func{OrderName: "Tool", F: func(p *cube.Packed) ([]int, error) {
		return Identity(p.Len()), nil
	}}
	xstatOrder = &Func{OrderName: "X-Stat", F: func(p *cube.Packed) ([]int, error) {
		return xstat(p), nil
	}}
	iOrder = &Func{OrderName: "I-Order", F: func(p *cube.Packed) ([]int, error) {
		perm, _, err := interleavedTrace(p)
		return perm, err
	}}
)

// XStat returns the X-Stat ordering, standing in for the ordering of
// [22] (paper unavailable — see DESIGN.md substitutions): a greedy
// nearest-neighbour chain that starts from the cube with the most care
// bits and repeatedly appends the cube with the fewest guaranteed
// toggles against the current tail, breaking ties toward higher X
// overlap (longer don't-care stretches).
func XStat() *Func { return xstatOrder }

// liveCube is an unused cube of the X-Stat chain: its index and a copy
// of its first care and value words, so the scan's first-word test
// streams through one slice instead of loading two plane lines per
// candidate.
type liveCube struct {
	c0, v0 uint64
	i      int
}

// xstat builds the X-Stat chain over a packed snapshot.
func xstat(p *cube.Packed) []int {
	n := p.Len()
	if n == 0 {
		return nil
	}
	// Start from the cube with the most specified bits: it anchors the
	// chain where the least filling freedom exists.
	start := 0
	for i := 1; i < n; i++ {
		if p.CareCount(i) > p.CareCount(start) {
			start = i
		}
	}
	// live lists the unused cubes in ascending index order; removal
	// keeps that order, so the first of equally good candidates is the
	// lowest index.
	live := make([]liveCube, 0, n-1)
	for i := 0; i < n; i++ {
		if i != start {
			c0, v0 := firstWords(p, i)
			live = append(live, liveCube{c0: c0, v0: v0, i: i})
		}
	}
	perm := make([]int, 0, n)
	perm = append(perm, start)
	for len(live) > 0 {
		at := nearest(p, perm[len(perm)-1], live)
		perm = append(perm, live[at].i)
		live = append(live[:at], live[at+1:]...)
	}
	return perm
}

// firstWords returns cube i's first care and value words; a zero-width
// cube has none and reads as all X.
func firstWords(p *cube.Packed, i int) (c0, v0 uint64) {
	care, val := p.CubeWords(i)
	if len(care) == 0 {
		return 0, 0
	}
	return care[0], val[0]
}

// dpvet:hot
// nearest returns the position in live of the cube closest to tail: the
// lowest guaranteed toggle count hd, then the largest X-union (the
// fewest jointly specified pins, both), then the lowest position. live
// is non-empty. The pair is compared as one key hd<<32 | both (both is
// at most the width, below 2^32), and since both parts only grow word
// by word, a candidate whose partial key reaches the best key can
// never win and is dropped there; most fall on the first word, which
// the live list holds inline.
func nearest(p *cube.Packed, tail int, live []liveCube) int {
	ct, vt := p.CubeWords(tail)
	c0, v0 := firstWords(p, tail)
	best, bestKey := 0, ^uint64(0)
next:
	for at := range live {
		l := &live[at]
		a := c0 & l.c0
		key := uint64(bits.OnesCount64((v0^l.v0)&a))<<32 | uint64(bits.OnesCount64(a))
		if key >= bestKey {
			continue
		}
		if len(ct) > 1 {
			ci, vi := p.CubeWords(l.i)
			ci, vi = ci[:len(ct)], vi[:len(ct)]
			for w := 1; w < len(ct); w++ {
				a := ct[w] & ci[w]
				key += uint64(bits.OnesCount64((vt[w]^vi[w])&a))<<32 | uint64(bits.OnesCount64(a))
				if key >= bestKey {
					continue next
				}
			}
		}
		best, bestKey = at, key
	}
	return best
}

// ISA returns the ISA ordering, standing in for Girard et al. [20]
// (vector ordering for test-power reduction; see DESIGN.md): a seeded
// simulated-annealing search over permutations minimizing the peak
// expected adjacent toggle count, refined from a greedy
// nearest-neighbour start. Costs are twice the expected distance so they
// stay integral; the annealer maintains the peak incrementally via a
// cost histogram, so each proposal is O(width/64).
func ISA(seed int64) *Func {
	return &Func{OrderName: "ISA", F: func(p *cube.Packed) ([]int, error) {
		n := p.Len()
		if n <= 2 {
			return Identity(n), nil
		}
		rng := rand.New(rand.NewSource(seed))

		perm := greedyExpected(p)
		st := newSAState(p, perm)
		best := append([]int(nil), perm...)
		bestPeak := st.peak()

		iters := 400 * n
		if iters > 120000 {
			iters = 120000
		}
		temp := float64(p.Width) / 2
		cool := 1 - 4.0/float64(iters)
		for it := 0; it < iters; it++ {
			i := 1 + rng.Intn(n-1)
			j := 1 + rng.Intn(n-1)
			if i == j {
				continue
			}
			before := st.peak()
			undo := st.swap(i, j)
			after := st.peak()
			if after <= before || rng.Float64() < annealAccept(before, after, temp) {
				if after < bestPeak {
					bestPeak = after
					copy(best, st.perm)
				}
			} else {
				st.unswap(undo)
			}
			temp *= cool
		}
		return best, nil
	}}
}

// annealAccept returns the acceptance probability for a worsening move:
// a rational decay temp/(temp+delta) standing in for exp(-delta/temp),
// monotone in both arguments and free of math imports.
func annealAccept(before, after int, temp float64) float64 {
	if temp <= 0 {
		return 0
	}
	d := float64(after - before)
	return temp / (temp + d)
}

// saState tracks a permutation, its adjacent edge costs (doubled
// expected distances) and a histogram of costs so the peak is available
// in O(1) amortized.
type saState struct {
	p     *cube.Packed
	perm  []int
	edges []int // edges[j] = cost(perm[j], perm[j+1])
	hist  []int // hist[c] = number of edges with cost c
	maxC  int   // current histogram peak (lazily lowered)
}

type saUndo struct {
	i, j int
}

func newSAState(p *cube.Packed, perm []int) *saState {
	st := &saState{p: p, perm: perm, hist: make([]int, 2*p.Width+1)}
	st.edges = make([]int, len(perm)-1)
	for j := 0; j+1 < len(perm); j++ {
		c := p.Expected2(perm[j], perm[j+1])
		st.edges[j] = c
		st.hist[c]++
		if c > st.maxC {
			st.maxC = c
		}
	}
	return st
}

func (st *saState) peak() int {
	for st.maxC > 0 && st.hist[st.maxC] == 0 {
		st.maxC--
	}
	return st.maxC
}

func (st *saState) setEdge(j, c int) {
	st.hist[st.edges[j]]--
	st.edges[j] = c
	st.hist[c]++
	if c > st.maxC {
		st.maxC = c
	}
}

// touchedEdges returns the edge indices incident to position i.
func (st *saState) touchedEdges(i int, out []int) []int {
	if i > 0 {
		out = append(out, i-1)
	}
	if i < len(st.edges) {
		out = append(out, i)
	}
	return out
}

// swap exchanges positions i and j and refreshes the incident edges.
func (st *saState) swap(i, j int) saUndo {
	st.perm[i], st.perm[j] = st.perm[j], st.perm[i]
	var buf [4]int
	touched := st.touchedEdges(i, buf[:0])
	touched = st.touchedEdges(j, touched)
	for _, e := range touched {
		st.setEdge(e, st.p.Expected2(st.perm[e], st.perm[e+1]))
	}
	return saUndo{i: i, j: j}
}

func (st *saState) unswap(u saUndo) {
	st.swap(u.i, u.j)
}

func greedyExpected(p *cube.Packed) []int {
	n := p.Len()
	used := make([]bool, n)
	perm := make([]int, 0, n)
	perm = append(perm, 0)
	used[0] = true
	for len(perm) < n {
		tail := perm[len(perm)-1]
		best, bestD := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			d := p.Expected2(tail, i)
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		perm = append(perm, best)
		used[best] = true
	}
	return perm
}

// Trace records one Algorithm 3 iteration: the interleave size k and the
// optimal bottleneck value DP-fill reports for that interleaving. Traces
// feed Fig. 2(a) and 2(b).
type Trace struct {
	K    int
	Peak int
}

// Interleaved returns the paper's I-Ordering (Algorithm 3). Cubes are
// sorted by ascending X count into T'; for growing interleave size k the
// candidate order takes one care-dense cube from the front of T'
// followed by k X-rich cubes from the back, evaluates the optimal
// bottleneck via DP-fill, and stops as soon as k+1 fails to improve on
// k. The best order seen is returned.
func Interleaved() *Func { return iOrder }

// InterleavedTrace is Interleaved's ordering of s plus the
// per-iteration trace used by Fig. 2(a)/(b).
func InterleavedTrace(s *cube.Set) ([]int, []Trace, error) {
	return interleavedTrace(cube.Pack(s))
}

// interleavedTrace is InterleavedTrace on a packed snapshot.
func interleavedTrace(p *cube.Packed) ([]int, []Trace, error) {
	n := p.Len()
	if n <= 2 {
		return Identity(n), nil, nil
	}
	// T': indices sorted by ascending X count, i.e. descending care
	// count (stable so equal-X cubes keep tool order, making the
	// ordering deterministic).
	tp := Identity(n)
	sort.SliceStable(tp, func(a, b int) bool {
		return p.CareCount(tp[a]) > p.CareCount(tp[b])
	})

	var traces []Trace
	bestPeak := -1
	var bestPerm []int
	for k := 1; k < n; k++ {
		perm := interleave(tp, k)
		peak, err := core.BottleneckOrder(p, perm)
		if err != nil {
			return nil, nil, fmt.Errorf("order: evaluating k=%d: %w", k, err)
		}
		traces = append(traces, Trace{K: k, Peak: peak})
		if bestPeak == -1 || peak < bestPeak {
			bestPeak = peak
			bestPerm = perm
		} else {
			break // Algorithm 3 exit_flag: first non-improving k stops.
		}
	}
	return bestPerm, traces, nil
}

// interleave builds the Algorithm 3 candidate for interleaving size k
// from the X-sorted index list tp: front cubes are care-dense, back
// cubes are X-rich.
func interleave(tp []int, k int) []int {
	n := len(tp)
	rounds := n / (k + 1)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	for i := 0; i < rounds; i++ {
		// Pick the i-th care-dense cube from the front...
		perm = append(perm, tp[i])
		used[i] = true
		// ...then k X-rich cubes from the back, descending.
		hi := n - i*k // one past the block start
		for t := 1; t <= k; t++ {
			pos := hi - t
			perm = append(perm, tp[pos])
			used[pos] = true
		}
	}
	// Leftover middle cubes (at most k) keep their T' order.
	for i := 0; i < n; i++ {
		if !used[i] {
			perm = append(perm, tp[i])
		}
	}
	return perm
}

// All returns the three orderings of Tables II–IV in order: Tool,
// X-Stat, I-Order.
func All() []Orderer {
	return []Orderer{Tool(), XStat(), Interleaved()}
}

// ByName resolves an orderer from its CLI/API spelling
// (case-insensitive): tool, xstat|x-stat, i|iorder|i-order, isa. The
// seed fixes the ISA annealing schedule. Shared by cmd/dpfill and the
// HTTP fill service, so the two front-ends accept the same names.
func ByName(name string, seed int64) (*Func, error) {
	switch strings.ToLower(name) {
	case "tool":
		return Tool(), nil
	case "xstat", "x-stat":
		return XStat(), nil
	case "i", "iorder", "i-order":
		return Interleaved(), nil
	case "isa":
		return ISA(seed), nil
	default:
		return nil, fmt.Errorf("order: unknown ordering %q", name)
	}
}
