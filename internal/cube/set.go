package cube

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Set is an ordered sequence of equal-width test cubes T1..Tn. The order
// is significant: peak toggles are measured between consecutive cubes.
type Set struct {
	// Width is the common cube width m (number of input pins).
	Width int
	// Cubes holds the ordered cubes; every cube has length Width.
	Cubes []Cube
}

// NewSet returns an empty set for cubes of the given width.
func NewSet(width int) *Set {
	return &Set{Width: width}
}

// Len returns the number of cubes n in the set.
func (s *Set) Len() int { return len(s.Cubes) }

// Append adds a cube to the end of the set. It panics if the cube width
// does not match the set width.
func (s *Set) Append(c Cube) {
	if len(c) != s.Width {
		panic(fmt.Sprintf("cube: appending cube of width %d to set of width %d", len(c), s.Width))
	}
	s.Cubes = append(s.Cubes, c)
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Width: s.Width, Cubes: make([]Cube, len(s.Cubes))}
	for i, c := range s.Cubes {
		out.Cubes[i] = c.Clone()
	}
	return out
}

// Equal reports whether two sets hold identical cubes in identical order.
func (s *Set) Equal(o *Set) bool {
	if s.Width != o.Width || len(s.Cubes) != len(o.Cubes) {
		return false
	}
	for i := range s.Cubes {
		if !s.Cubes[i].Equal(o.Cubes[i]) {
			return false
		}
	}
	return true
}

// Reorder returns a new set whose i-th cube is s.Cubes[perm[i]]. The
// permutation must be a bijection over [0, n); Reorder panics otherwise.
// The cubes themselves are shared, not copied.
func (s *Set) Reorder(perm []int) *Set {
	if len(perm) != len(s.Cubes) {
		panic("cube: Reorder permutation length mismatch")
	}
	seen := make([]bool, len(perm))
	out := &Set{Width: s.Width, Cubes: make([]Cube, len(perm))}
	for i, p := range perm {
		if p < 0 || p >= len(s.Cubes) || seen[p] {
			panic("cube: Reorder argument is not a permutation")
		}
		seen[p] = true
		out.Cubes[i] = s.Cubes[p]
	}
	return out
}

// XCount returns the total number of X bits across all cubes.
func (s *Set) XCount() int {
	n := 0
	for _, c := range s.Cubes {
		n += c.XCount()
	}
	return n
}

// XPercent returns the average percentage of X bits per cube, the
// statistic reported in column 4 of Table I. It returns 0 for an empty
// set.
func (s *Set) XPercent() float64 {
	if len(s.Cubes) == 0 || s.Width == 0 {
		return 0
	}
	return 100 * float64(s.XCount()) / float64(s.Width*len(s.Cubes))
}

// FullySpecified reports whether no cube in the set contains an X.
func (s *Set) FullySpecified() bool {
	for _, c := range s.Cubes {
		if !c.FullySpecified() {
			return false
		}
	}
	return true
}

// Covers reports whether filled is a legal completion of s: same shape,
// fully specified, and agreeing with every care bit of s. X-filling
// algorithms must produce sets for which s.Covers(filled) is true.
func (s *Set) Covers(filled *Set) bool {
	if filled.Width != s.Width || len(filled.Cubes) != len(s.Cubes) {
		return false
	}
	for i, c := range s.Cubes {
		f := filled.Cubes[i]
		for j := range c {
			if f[j] == X {
				return false
			}
			if c[j] != X && c[j] != f[j] {
				return false
			}
		}
	}
	return true
}

// ToggleProfile returns the guaranteed toggle count between each pair of
// consecutive cubes: element j is HammingDistance(T_j, T_j+1). For a
// fully specified set this is the exact per-cycle toggle count. The
// result has length n-1 (nil for n < 2).
func (s *Set) ToggleProfile() []int {
	if len(s.Cubes) < 2 {
		return nil
	}
	out := make([]int, len(s.Cubes)-1)
	s.toggleScan(out)
	return out
}

// PeakToggles returns the maximum guaranteed toggle count over all
// consecutive cube pairs — the objective of §IV once the set is fully
// specified. It returns 0 for sets with fewer than two cubes.
func (s *Set) PeakToggles() int {
	peak, _ := s.toggleScan(nil)
	return peak
}

// TotalToggles returns the sum of guaranteed toggles over all consecutive
// pairs (the average-power proxy, as opposed to the peak).
func (s *Set) TotalToggles() int {
	_, total := s.toggleScan(nil)
	return total
}

// ToggleStats computes peak, total and the per-cycle profile in one
// pass — what a serving front-end wants after a fill, without scanning
// the set three times.
func (s *Set) ToggleStats() (peak, total int, profile []int) {
	if len(s.Cubes) >= 2 {
		profile = make([]int, len(s.Cubes)-1)
	}
	peak, total = s.toggleScan(profile)
	return peak, total, profile
}

// toggleScan is the shared word-parallel engine behind the toggle
// statistics: each cube is packed into (care, value) words once and
// consecutive pairs reduce to popcounts of (vᵢ⊕vᵢ₊₁)∧cᵢ∧cᵢ₊₁ — 64
// pins per word operation instead of a branchy per-trit compare, and
// each cube is packed once rather than once per neighbouring pair.
// profile, when non-nil, must have length n-1 and receives the
// per-cycle counts.
func (s *Set) toggleScan(profile []int) (peak, total int) {
	n := len(s.Cubes)
	if n < 2 || s.Width == 0 {
		return 0, 0
	}
	words := (s.Width + 63) / 64
	buf := make([]uint64, 4*words)
	prevC, prevV := buf[:words], buf[words:2*words]
	curC, curV := buf[2*words:3*words], buf[3*words:]
	packCubeWords(s.Cubes[0], prevC, prevV)
	for j := 1; j < n; j++ {
		packCubeWords(s.Cubes[j], curC, curV)
		d := 0
		for w := range curC {
			d += bits.OnesCount64((prevV[w] ^ curV[w]) & prevC[w] & curC[w])
		}
		if profile != nil {
			profile[j-1] = d
		}
		if d > peak {
			peak = d
		}
		total += d
		prevC, curC = curC, prevC
		prevV, curV = curV, prevV
	}
	return peak, total
}

// packCubeWords packs one cube into care/value bit words (the word
// slices are fully overwritten).
func packCubeWords(c Cube, care, val []uint64) {
	for w := range care {
		care[w], val[w] = packWord(c[w*64 : min(w*64+64, len(c))])
	}
}

// Row returns pin i across all cubes — row i of the matrix A of §V-C.
// The returned slice is freshly allocated.
func (s *Set) Row(i int) []Trit {
	row := make([]Trit, len(s.Cubes))
	for j, c := range s.Cubes {
		row[j] = c[i]
	}
	return row
}

// SetRow writes row back into pin position i of every cube.
func (s *Set) SetRow(i int, row []Trit) {
	if len(row) != len(s.Cubes) {
		panic("cube: SetRow length mismatch")
	}
	for j := range s.Cubes {
		s.Cubes[j][i] = row[j]
	}
}

// String renders the set one cube per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, c := range s.Cubes {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Write serializes the set in the plain text cube-file format: one cube
// per line, '#' comments and blank lines permitted on read.
func (s *Set) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Cubes {
		if _, err := bw.WriteString(c.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSet parses a cube file: one cube per line, all lines of equal
// width; '#'-prefixed lines and blank lines are skipped.
func ReadSet(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var set *Set
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		c, err := Parse(text)
		if err != nil {
			return nil, fmt.Errorf("cube: line %d: %w", line, err)
		}
		if set == nil {
			set = NewSet(len(c))
		}
		if len(c) != set.Width {
			return nil, fmt.Errorf("cube: line %d: width %d, want %d", line, len(c), set.Width)
		}
		set.Append(c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("cube: empty cube file")
	}
	return set, nil
}

// ParseSet builds a set from whitespace-separated cube strings, a
// convenience for tests and examples. When every cube is the same
// number of bytes, all of them decode through the byte table into one
// backing array (each cube a capacity-capped window of it); anything
// else takes the per-cube Parse path, which reports today's error.
func ParseSet(cubes ...string) (*Set, error) {
	if len(cubes) == 0 {
		return nil, fmt.Errorf("cube: ParseSet needs at least one cube")
	}
	width := len(cubes[0])
	for _, s := range cubes {
		if len(s) != width {
			return parseSetEach(cubes)
		}
	}
	buf := make(Cube, len(cubes)*width)
	set := &Set{Width: width, Cubes: make([]Cube, len(cubes))}
	for i, s := range cubes {
		c := buf[i*width : (i+1)*width : (i+1)*width]
		if !decodeASCII(c, s) {
			return parseSetEach(cubes)
		}
		set.Cubes[i] = c
	}
	return set, nil
}

// parseSetEach is ParseSet one cube at a time: the path that owns the
// error messages for bad characters and ragged widths.
func parseSetEach(cubes []string) (*Set, error) {
	var set *Set
	for _, s := range cubes {
		c, err := Parse(s)
		if err != nil {
			return nil, err
		}
		if set == nil {
			set = NewSet(len(c))
		}
		if len(c) != set.Width {
			return nil, fmt.Errorf("cube: inconsistent width %d, want %d", len(c), set.Width)
		}
		set.Append(c)
	}
	return set, nil
}

// MustParseSet is ParseSet that panics on error.
func MustParseSet(cubes ...string) *Set {
	s, err := ParseSet(cubes...)
	if err != nil {
		panic(err)
	}
	return s
}
