// Package cube implements three-valued (0, 1, X) test cubes and ordered
// cube sets, the data substrate every X-filling and ordering algorithm in
// this repository operates on.
//
// Terminology follows the paper: a test cube is a vector of trits applied
// to the circuit inputs (primary inputs plus scan flip-flop outputs); a
// cube set is an ordered sequence T1..Tn of cubes of equal width m. The
// m×n matrix A of §V-C is the transpose view: row i of A is pin i across
// all cubes.
package cube

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Trit is a three-valued logic symbol: 0, 1 or don't-care (X).
type Trit uint8

// The three trit values. Zero and One are the binary care values; X is a
// don't-care that an X-filling algorithm may replace with either.
const (
	Zero Trit = 0
	One  Trit = 1
	X    Trit = 2
)

// IsCare reports whether t is a specified (non-X) bit.
func (t Trit) IsCare() bool { return t != X }

// Rune returns the canonical character for t: '0', '1' or 'X'.
func (t Trit) Rune() rune { return rune(tritChar[t]) }

// tritChar maps every Trit value to its canonical character: '0', '1',
// and 'X' for X and any out-of-range value, as Rune always has. It is
// the one encoder behind Rune, Cube.String and the packed renderer.
var tritChar = func() (tab [256]byte) {
	for i := range tab {
		tab[i] = 'X'
	}
	tab[Zero], tab[One] = '0', '1'
	return tab
}()

// badTrit marks a byte charTrit does not decode; it is the only table
// value with the high bit set, so a decoder can OR every decoded byte
// together and test once.
const badTrit Trit = 0x80

// charTrit is ParseTrit on single bytes: the accepted ASCII characters
// map to their trit, every other byte (including each byte of a
// multi-byte UTF-8 sequence) to badTrit.
var charTrit = func() (tab [256]Trit) {
	for i := range tab {
		tab[i] = badTrit
	}
	tab['0'], tab['1'] = Zero, One
	tab['x'], tab['X'], tab['-'] = X, X, X
	return tab
}()

// decodeASCII decodes s into dst, which must have length len(s),
// through charTrit. It reports false when some byte is not an accepted
// trit character; dst is then partly written and must be discarded.
func decodeASCII(dst Cube, s string) bool {
	dst = dst[:len(s)]
	var acc Trit
	for i := range dst {
		t := charTrit[s[i]]
		acc |= t
		dst[i] = t
	}
	return acc&badTrit == 0
}

// firstTritError returns the error ParseTrit gives for the first rune
// of s it rejects, or nil if it accepts them all.
func firstTritError(s string) error {
	for _, r := range s {
		if _, err := ParseTrit(r); err != nil {
			return err
		}
	}
	return nil
}

// Neg returns the complement of a care trit; X stays X.
func (t Trit) Neg() Trit {
	switch t {
	case Zero:
		return One
	case One:
		return Zero
	default:
		return X
	}
}

// String implements fmt.Stringer.
func (t Trit) String() string { return string(t.Rune()) }

// ParseTrit converts a character into a Trit. Accepted: '0', '1',
// 'x'/'X', and '-' (a common don't-care spelling in pattern files).
func ParseTrit(r rune) (Trit, error) {
	switch r {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X', '-':
		return X, nil
	default:
		return X, fmt.Errorf("cube: invalid trit character %q", r)
	}
}

// Cube is a single test cube: a fixed-width vector of trits.
type Cube []Trit

// New returns an all-X cube of the given width.
func New(width int) Cube {
	c := make(Cube, width)
	for i := range c {
		c[i] = X
	}
	return c
}

// Parse builds a cube from a string such as "01XX0". It accepts the same
// characters as ParseTrit and ignores nothing: the cube width equals the
// rune count. Every accepted character is one byte, so the decode runs
// bytewise through a table; any other input is rejected with the error
// ParseTrit gives for its first offending rune.
func Parse(s string) (Cube, error) {
	c := make(Cube, len(s))
	if !decodeASCII(c, s) {
		return nil, firstTritError(s)
	}
	return c, nil
}

// MustParse is Parse that panics on error, for tests and fixed examples.
func MustParse(s string) Cube {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the cube with '0', '1' and 'X' characters.
func (c Cube) String() string {
	if len(c) == 0 {
		return ""
	}
	b := c.AppendTo(make([]byte, 0, len(c)))
	// b is never written again, so the string may share its bytes (the
	// strings.Builder idiom).
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendTo appends the cube's canonical '0'/'1'/'X' rendering to dst
// and returns the extended slice: String without the allocation, for
// callers that stream many cubes through one buffer.
func (c Cube) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(c))[:n+len(c)]
	out := dst[n:]
	for i, t := range c {
		out[i] = tritChar[t]
	}
	return dst
}

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o have identical width and trits.
func (c Cube) Equal(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// dpvet:hot
// XCount returns the number of don't-care bits in c. For eight trits
// at a time, the bytes equal to X become zero under y = x ^ xs8, and
// the exact zero-byte test ((y&^msb8)+^msb8 | y) & msb8 — which never
// carries between bytes — leaves bit 7 set in every byte that is not X.
func (c Cube) XCount() int {
	n, k := 0, 0
	for ; k+8 <= len(c); k += 8 {
		y := load64(c[k:]) ^ xs8
		nonX := ((y &^ msb8) + ^uint64(msb8) | y) & msb8
		n += 8 - bits.OnesCount64(nonX)
	}
	for _, v := range c[k:] {
		if v == X {
			n++
		}
	}
	return n
}

// CareCount returns the number of specified bits in c.
func (c Cube) CareCount() int { return len(c) - c.XCount() }

// FullySpecified reports whether c contains no X bits.
func (c Cube) FullySpecified() bool { return c.XCount() == 0 }

// Compatible reports whether c and o agree on every jointly specified bit
// (i.e. the cubes could be merged). Cubes of unequal width are never
// compatible.
func (c Cube) Compatible(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != X && o[i] != X && c[i] != o[i] {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions where c and o are both
// specified and differ. This is the guaranteed toggle count between the
// two cubes: no X-filling can remove these toggles. It panics if widths
// differ.
func (c Cube) HammingDistance(o Cube) int {
	if len(c) != len(o) {
		panic("cube: HammingDistance on cubes of different width")
	}
	d := 0
	for i := range c {
		if c[i] != X && o[i] != X && c[i] != o[i] {
			d++
		}
	}
	return d
}

// PotentialDistance returns the number of positions where a toggle between
// c and o is possible: both specified and different, or at least one X.
// It is an upper bound on the post-fill Hamming distance.
func (c Cube) PotentialDistance(o Cube) int {
	if len(c) != len(o) {
		panic("cube: PotentialDistance on cubes of different width")
	}
	d := 0
	for i := range c {
		if c[i] == X || o[i] == X || c[i] != o[i] {
			d++
		}
	}
	return d
}

// ExpectedDistance returns the expected Hamming distance between c and o
// under uniformly random independent X-filling: both-specified differing
// positions count 1, positions with exactly one X count 1/2, and X-X
// positions count 1/2 (two independent coin flips differ with probability
// 1/2).
func (c Cube) ExpectedDistance(o Cube) float64 {
	if len(c) != len(o) {
		panic("cube: ExpectedDistance on cubes of different width")
	}
	var d float64
	for i := range c {
		switch {
		case c[i] != X && o[i] != X:
			if c[i] != o[i] {
				d++
			}
		default:
			d += 0.5
		}
	}
	return d
}
