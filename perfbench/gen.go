package main

// Seeded input generation. Every input the benchmark sends is derived
// here from the run's --seed through independent PCG streams, so one
// seed always yields byte-identical inputs, whatever order the closed
// loop happens to consume them in. The benchmark never calls the
// program's own generators for its cube sets.

import (
	"math"
	"math/rand/v2"
)

// Stream identifiers: each purpose draws from its own PCG stream so
// adding draws to one never shifts another.
const (
	streamShapes uint64 = iota + 1
	streamCells
	streamOffsets
	streamBlocks
	streamWarm
	streamPopularity
)

// rng returns the PCG stream for one purpose of one seed. sub
// distinguishes several streams of one purpose (one per set, per block).
func rng(seed, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40|sub))
}

// bounds is a closed range a shape dimension is drawn from.
type bounds struct{ lo, hi float64 }

// stratum draws from stratum i of k equal strata of s, uniformly inside
// it: k draws, one per stratum, cover the range evenly for every seed.
func (s bounds) stratum(r *rand.Rand, i, k int) float64 {
	w := (s.hi - s.lo) / float64(k)
	return s.lo + w*(float64(i)+r.Float64())
}

// shape is one cube set's geometry.
type shape struct {
	pins, vectors int
	// x is the target don't-care fraction.
	x float64
}

// shapes draws k shapes by Latin-hypercube sampling from continuous
// ranges. Shape i sits in pins stratum i and in fixed permutations of i
// for the vector and X strata, so the mix of shapes — and with it the
// cost mix of a run — is the same for every seed; the seed only jitters
// each draw inside its stratum and fills the cells. k must be odd or a
// power of two so the multipliers 5 and 11 permute the strata.
func shapes(seed uint64, k int, pins, vectors, x bounds) []shape {
	r := rng(seed, streamShapes, uint64(k))
	out := make([]shape, k)
	for i := range out {
		out[i] = shape{
			pins:    int(math.Round(pins.stratum(r, i, k))),
			vectors: int(math.Round(vectors.stratum(r, (i*5+3)%k, k))),
			x:       x.stratum(r, (i*11+7)%k, k),
		}
	}
	return out
}

// cubeSet renders one test set of sh.vectors cubes of sh.pins trits.
// Care density varies per cube the way compacted ATPG output does — a
// few care-dense cubes and a long X-rich tail (exponentially
// distributed care fraction) — around the mean don't-care fraction
// sh.x.
func cubeSet(r *rand.Rand, sh shape) []string {
	out := make([]string, sh.vectors)
	buf := make([]byte, sh.pins)
	mean := 1 - sh.x
	for j := range out {
		care := math.Min(mean*r.ExpFloat64(), 0.95)
		for p := range buf {
			switch u := r.Float64(); {
			case u >= care:
				buf[p] = 'X'
			case u < care/2:
				buf[p] = '0'
			default:
				buf[p] = '1'
			}
		}
		out[j] = string(buf)
	}
	return out
}

// cubeSets draws k shapes and renders one set per shape; set i comes
// from its own stream, so sets are independent of each other's sizes.
func cubeSets(seed uint64, k int, pins, vectors, x bounds) [][]string {
	sets := make([][]string, k)
	for i, sh := range shapes(seed, k, pins, vectors, x) {
		sets[i] = cubeSet(rng(seed, streamCells, uint64(k)<<20|uint64(i)), sh)
	}
	return sets
}

// offsets draws one starting rotation per set.
func offsets(seed uint64, sets [][]string) []int {
	r := rng(seed, streamOffsets, uint64(len(sets)))
	out := make([]int, len(sets))
	for i, s := range sets {
		out[i] = r.IntN(len(s))
	}
	return out
}

// rotationStride spaces the rotations of one base set: it is a prime
// larger than any generated vector count, so rotations 0..n-1 of an
// n-vector set all start at distinct offsets.
const rotationStride = 7919

// variant returns variant v of base set b: the same cubes in another
// vector order, so a base set yields any number of fresh (distinct
// digest), equally expensive fill requests without regenerating cells.
// Variant v = q*n + r visits vector (off + j*m) mod n at position j,
// where off is the set's seeded start plus r strides and m is the q-th
// step coprime to n (m = 1 is a plain rotation). Distinct (off, m)
// pairs give distinct sequences. Only string headers are copied.
func variant(sets [][]string, starts []int, b, v int) []string {
	set := sets[b]
	n := len(set)
	q, r := v/n, v%n
	m := 1
	for seen := 0; ; m++ {
		if gcd(m, n) == 1 {
			if seen == q {
				break
			}
			seen++
		}
	}
	off := (starts[b] + r*rotationStride) % n
	out := make([]string, n)
	for j := range out {
		out[j] = set[(off+j*m)%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// blockOrder is the seeded visiting order of k items in block v.
func blockOrder(seed uint64, k, v int) []int {
	return rng(seed, streamBlocks, uint64(k)<<32|uint64(v)).Perm(k)
}
