// Package fill implements the baseline X-filling techniques the paper
// compares DP-fill against in Tables II–VI: constant fills (0-fill,
// 1-fill), random fill (R-fill), minimum-transition fill (MT-fill),
// inter-pattern backward fill (B-fill), adjacent fill (Adj-fill, [21])
// and the two-phase statistical X-Stat fill ([22], the best prior
// heuristic and the paper's Fig. 1 foil).
//
// Every filler consumes a packed snapshot in an applied order and
// returns a Result: a fully specified matrix that completes it (same
// care bits, no X left; see cube.Set.Covers), held as packed row
// planes, with its toggle statistics counted once. Fillers never
// modify their input.
package fill

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/cube"
)

// Filler is a named X-filling algorithm on a packed snapshot.
type Filler interface {
	// Name returns the short name used in tables ("0-fill", "DP-fill"...).
	Name() string
	// Fill returns a fully specified completion of the cubes of p
	// applied in perm order (nil: snapshot order). p is not modified.
	Fill(p *cube.Packed, perm []int) (*Result, error)
}

// Result is one fill's outcome: the filled matrix as packed row planes
// (cube j is column j), owned by the result, and the toggle statistics
// the filler counted on it. Every consumer reads Peak, Total and
// Profile from here instead of recounting; Set unpacks the trits for
// the few that need them.
type Result struct {
	// Rows is the fully specified matrix in the filled set's order;
	// nil from a count-only entry point (DP-fill's CountPacked).
	Rows *cube.PackedRows
	// Peak and Total are the peak and total toggle counts; Profile is
	// the per-cycle count (nil below two vectors).
	Peak, Total int
	Profile     []int
}

// Set unpacks the filled matrix into a fresh cube set.
func (r *Result) Set() *cube.Set { return r.Rows.Unpack() }

// count packs a filled set once and counts its toggles once, on the
// planes.
func count(s *cube.Set) *Result {
	r := &Result{Rows: cube.PackRows(s)}
	r.Profile = r.Rows.ToggleProfile()
	for _, v := range r.Profile {
		r.Peak = max(r.Peak, v)
		r.Total += v
	}
	return r
}

// Func adapts a set-filling function to the Filler interface: Fill
// unpacks the snapshot in the applied order, the one edge where the
// baselines that walk trits meet the packed fill stack, and packs and
// counts the set F returns.
type Func struct {
	FillName string
	// F fills the set it is given, a fresh unpack that it owns, in
	// place or into a set it returns.
	F func(*cube.Set) (*cube.Set, error)
}

// Name implements Filler.
func (f Func) Name() string { return f.FillName }

// Fill implements Filler.
func (f Func) Fill(p *cube.Packed, perm []int) (*Result, error) {
	out, err := f.F(p.Unpack(perm))
	if err != nil {
		return nil, err
	}
	return count(out), nil
}

// Constant fills every X with the given care value (0-fill / 1-fill).
func Constant(v cube.Trit) Filler {
	name := "0-fill"
	if v == cube.One {
		name = "1-fill"
	}
	return Func{FillName: name, F: func(out *cube.Set) (*cube.Set, error) {
		if !v.IsCare() {
			return nil, fmt.Errorf("fill: constant fill value must be 0 or 1")
		}
		for _, c := range out.Cubes {
			for i := range c {
				if c[i] == cube.X {
					c[i] = v
				}
			}
		}
		return out, nil
	}}
}

// Zero returns the 0-fill filler.
func Zero() Filler { return Constant(cube.Zero) }

// One returns the 1-fill filler.
func One() Filler { return Constant(cube.One) }

// Random returns the R-fill filler: every X becomes an independent fair
// coin flip drawn from a generator seeded with seed, so runs are
// reproducible.
func Random(seed int64) Filler {
	return Func{FillName: "R-fill", F: func(out *cube.Set) (*cube.Set, error) {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range out.Cubes {
			for i := range c {
				if c[i] == cube.X {
					if rng.Intn(2) == 0 {
						c[i] = cube.Zero
					} else {
						c[i] = cube.One
					}
				}
			}
		}
		return out, nil
	}}
}

// MT returns the MT-fill (minimum transition) filler: within each test
// vector, every X copies the nearest specified bit to its left (the value
// last shifted through that part of the scan chain), minimizing
// transitions along the vector. Leading Xs copy the first specified bit;
// all-X vectors become constant 0.
func MT() Filler {
	return Func{FillName: "MT-fill", F: func(out *cube.Set) (*cube.Set, error) {
		for _, c := range out.Cubes {
			fillVectorMT(c)
		}
		return out, nil
	}}
}

func fillVectorMT(c cube.Cube) {
	last := cube.Trit(cube.X)
	for i := 0; i < len(c); i++ {
		if c[i] != cube.X {
			last = c[i]
		} else if last != cube.X {
			c[i] = last
		}
	}
	// Leading Xs (and all-X vectors) copy the first care bit, or 0.
	first := cube.Trit(cube.Zero)
	for i := 0; i < len(c); i++ {
		if c[i] != cube.X {
			first = c[i]
			break
		}
	}
	for i := 0; i < len(c) && c[i] == cube.X; i++ {
		c[i] = first
	}
}

// Adj returns the Adj-fill filler after Wu et al. [21]: within each test
// vector every X copies its nearest specified neighbour (left or right,
// whichever is closer; ties go left), the classic adjacent fill used for
// LOS transition-fault vectors.
func Adj() Filler {
	return Func{FillName: "Adj-fill", F: func(out *cube.Set) (*cube.Set, error) {
		for _, c := range out.Cubes {
			fillVectorAdj(c)
		}
		return out, nil
	}}
}

func fillVectorAdj(c cube.Cube) {
	n := len(c)
	// Distance to nearest care bit on the left and on the right.
	leftVal := make([]cube.Trit, n)
	leftDist := make([]int, n)
	last, dist := cube.Trit(cube.X), 0
	for i := 0; i < n; i++ {
		if c[i] != cube.X {
			last, dist = c[i], 0
		} else if last != cube.X {
			dist++
		}
		leftVal[i], leftDist[i] = last, dist
	}
	rightVal := make([]cube.Trit, n)
	rightDist := make([]int, n)
	last, dist = cube.X, 0
	for i := n - 1; i >= 0; i-- {
		if c[i] != cube.X {
			last, dist = c[i], 0
		} else if last != cube.X {
			dist++
		}
		rightVal[i], rightDist[i] = last, dist
	}
	for i := 0; i < n; i++ {
		if c[i] != cube.X {
			continue
		}
		switch {
		case leftVal[i] == cube.X && rightVal[i] == cube.X:
			c[i] = cube.Zero // all-X vector
		case leftVal[i] == cube.X:
			c[i] = rightVal[i]
		case rightVal[i] == cube.X:
			c[i] = leftVal[i]
		case rightDist[i] < leftDist[i]:
			c[i] = rightVal[i]
		default:
			c[i] = leftVal[i]
		}
	}
}

// Backward returns the B-fill filler: cubes are processed in sequence
// order and every X copies the value the same pin held in the previous
// (already filled) cube; the first cube falls back to MT-fill. This
// greedily zeroes inter-pattern toggles wherever a stretch allows it and
// is the strongest heuristic baseline in the paper's tables.
func Backward() Filler {
	return Func{FillName: "B-fill", F: func(out *cube.Set) (*cube.Set, error) {
		if out.Len() == 0 {
			return out, nil
		}
		fillVectorMT(out.Cubes[0])
		for j := 1; j < out.Len(); j++ {
			prev, cur := out.Cubes[j-1], out.Cubes[j]
			for i := range cur {
				if cur[i] == cube.X {
					cur[i] = prev[i]
				}
			}
		}
		return out, nil
	}}
}

// XStat returns the X-Stat filler of [22], the best prior heuristic and
// the foil of Fig. 1. It runs two phases:
//
// Phase 1 (adjacent fill): within each pin row, equal-boundary stretches
// (0X..X0 / 1X..X1) and row edges are filled by copying the adjacent
// care value; unequal-boundary stretches (0X..X1 / 1X..X0) are filled
// greedily from both ends toward the middle, so a stretch of L Xs keeps
// exactly one X when L is odd and none when L is even (the toggle is then
// committed to the middle cycle). This is the greedy step that costs
// X-Stat global optimality.
//
// Phase 2 (statistical fill): each surviving X sits between a value v on
// its left and v̄ on its right, so choosing its value places the stretch's
// toggle in one of two adjacent cycles. Phase 2 scans rows in pin order,
// maintaining the per-cycle toggle histogram (including already-committed
// toggles), and greedily picks the cycle with the smaller current count.
func XStat() Filler {
	return Func{FillName: "X-Stat", F: func(out *cube.Set) (*cube.Set, error) {
		n := out.Len()
		if n == 0 {
			return out, nil
		}
		// Phase 1, per pin row.
		for i := 0; i < out.Width; i++ {
			row := out.Row(i)
			xstatPhase1(row)
			out.SetRow(i, row)
		}
		if n == 1 {
			// No cycles; resolve any leftover X arbitrarily.
			for _, c := range out.Cubes {
				for i := range c {
					if c[i] == cube.X {
						c[i] = cube.Zero
					}
				}
			}
			return out, nil
		}
		// Phase 2: histogram of committed toggles, then greedy choice per
		// surviving X.
		hist := make([]int, n-1)
		for j := 0; j+1 < n; j++ {
			hist[j] = out.Cubes[j].HammingDistance(out.Cubes[j+1])
		}
		for i := 0; i < out.Width; i++ {
			row := out.Row(i)
			changed := false
			for j := 0; j < n; j++ {
				if row[j] != cube.X {
					continue
				}
				// Phase 1 guarantees a care bit on both sides with
				// opposite values: left neighbour j-1, right neighbour j+1.
				left := row[j-1]
				// Setting row[j] = left moves the toggle to cycle j;
				// setting it to the right value moves it to cycle j-1.
				if hist[j] < hist[j-1] {
					row[j] = left
					hist[j]++
				} else {
					row[j] = left.Neg()
					hist[j-1]++
				}
				changed = true
			}
			if changed {
				out.SetRow(i, row)
			}
		}
		return out, nil
	}}
}

// xstatPhase1 fills one row: edges and equal stretches by copying, and
// unequal stretches from both ends inward, leaving at most one X (at the
// middle of odd-length stretches).
func xstatPhase1(row []cube.Trit) {
	for _, st := range cube.RowStretches(0, row) {
		switch st.Kind() {
		case cube.KindFree:
			for j := st.Start; j <= st.End; j++ {
				row[j] = cube.Zero
			}
		case cube.KindLeft:
			for j := st.Start; j <= st.End; j++ {
				row[j] = st.Right
			}
		case cube.KindRight:
			for j := st.Start; j <= st.End; j++ {
				row[j] = st.Left
			}
		case cube.KindEqual:
			for j := st.Start; j <= st.End; j++ {
				row[j] = st.Left
			}
		case cube.KindUnequal:
			// Fill inward from both ends; for odd lengths the middle X
			// survives to phase 2 (its two neighbours then hold opposite
			// care values), for even lengths the toggle is committed to
			// the middle cycle here — the greedy choice Fig. 1 shows to
			// be sub-optimal.
			l, r := st.Start, st.End
			for l < r {
				row[l] = st.Left
				row[r] = st.Right
				l++
				r--
			}
		}
	}
}

// Baselines returns the five heuristic fillers of Tables II–IV in column
// order (MT, R, 0, 1, B). The random seed fixes R-fill.
func Baselines(seed int64) []Filler {
	return []Filler{MT(), Random(seed), Zero(), One(), Backward()}
}

// ByName resolves a filler from its CLI/API spelling (case-insensitive):
// mt, r|random, 0|zero, 1|one, b|backward, adj, xstat|x-stat,
// dp|dpfill|dp-fill; the empty name means DP-fill. The seed fixes
// R-fill and opt configures DP-fill (see DPWith); the other fillers
// ignore it. It is the one resolver behind every front-end — the
// dpfill CLI, the HTTP fill service, the pipeline's fill stage and the
// experiment tables — so they all accept the same names and build the
// same filler from them.
func ByName(name string, seed int64, opt core.Options) (Filler, error) {
	switch strings.ToLower(name) {
	case "mt", "mt-fill":
		return MT(), nil
	case "r", "random", "r-fill":
		return Random(seed), nil
	case "0", "zero", "0-fill":
		return Zero(), nil
	case "1", "one", "1-fill":
		return One(), nil
	case "b", "backward", "b-fill":
		return Backward(), nil
	case "adj", "adj-fill":
		return Adj(), nil
	case "xstat", "x-stat":
		return XStat(), nil
	case "", "dp", "dpfill", "dp-fill":
		return DPWith(opt), nil
	default:
		return nil, fmt.Errorf("fill: unknown fill %q", name)
	}
}
