package cube

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refPack is Pack as it stood before the word-at-a-time decode: one
// shift-and-OR per trit. FuzzPackRows pins Pack to it.
func refPack(s *Set) *Packed {
	words := (s.Width + 63) / 64
	n := s.Len()
	p := &Packed{
		Width: s.Width, Words: words, n: n,
		care:      make([]uint64, n*words),
		val:       make([]uint64, n*words),
		careCount: make([]int, n),
	}
	for i, c := range s.Cubes {
		care := p.care[i*words : (i+1)*words]
		val := p.val[i*words : (i+1)*words]
		cc := 0
		for w := range care {
			lo := w * 64
			hi := min(lo+64, len(c))
			var cw, vw uint64
			for k, t := range c[lo:hi] {
				tb := uint64(t)
				cw |= (tb>>1 ^ 1) << uint(k)
				vw |= (tb & 1) << uint(k)
			}
			care[w], val[w] = cw, vw
			cc += bits.OnesCount64(cw)
		}
		p.careCount[i] = cc
	}
	return p
}

// refPackRows is PackRows as it stood before the 64×64 transpose: a
// tile of 64 cubes × 128 rows accumulated one trit at a time.
// FuzzPackRows pins PackRows and PackRowsInto to it.
func refPackRows(s *Set) *PackedRows {
	words := (s.Len() + 63) / 64
	p := &PackedRows{Width: s.Width, N: s.Len(), Words: words}
	need := s.Width * words
	p.careBuf = make([]uint64, need)
	p.valBuf = make([]uint64, need)
	p.care = rowViews(nil, p.careBuf, s.Width, words)
	p.val = rowViews(nil, p.valBuf, s.Width, words)
	var careW, valW [transposeTile]uint64
	for w := 0; w < words; w++ {
		jlo, jhi := w*64, min((w+1)*64, p.N)
		for i0 := 0; i0 < p.Width; i0 += transposeTile {
			i1 := min(i0+transposeTile, p.Width)
			for k := range careW[:i1-i0] {
				careW[k], valW[k] = 0, 0
			}
			for j := jlo; j < jhi; j++ {
				sh := uint(j % 64)
				for k, t := range s.Cubes[j][i0:i1] {
					tb := uint64(t)
					careW[k] |= (tb>>1 ^ 1) << sh
					valW[k] |= (tb & 1) << sh
				}
			}
			for i := i0; i < i1; i++ {
				p.careBuf[i*words+w] = careW[i-i0]
				p.valBuf[i*words+w] = valW[i-i0]
			}
		}
	}
	return p
}

// refXCount is Cube.XCount one trit at a time.
func refXCount(c Cube) int {
	n := 0
	for _, t := range c {
		if t == X {
			n++
		}
	}
	return n
}

// parsedSet draws an n×width set at the given X probability (in
// percent) and builds it through ParseSet, so the cubes are the
// unaligned, capacity-capped windows of one buffer that the served
// path decodes. All three X spellings appear. n = 0 gives an empty set
// of that width.
func parsedSet(t testing.TB, r *rand.Rand, width, n, xPct int) *Set {
	if n == 0 {
		return NewSet(width)
	}
	lines := make([]string, n)
	var b strings.Builder
	for j := range lines {
		b.Reset()
		for range width {
			switch {
			case r.Intn(100) < xPct:
				b.WriteByte("xX-"[r.Intn(3)])
			case r.Intn(2) == 0:
				b.WriteByte('0')
			default:
				b.WriteByte('1')
			}
		}
		lines[j] = b.String()
	}
	s, err := ParseSet(lines...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPackMatchesRef requires Pack, PackRows, a PackRowsInto that
// reuses a dirty snapshot, and every XCount to agree with their
// per-trit references bit for bit.
func checkPackMatchesRef(t *testing.T, s *Set, dirty *PackedRows) {
	t.Helper()
	got, want := Pack(s), refPack(s)
	if got.Width != want.Width || got.Words != want.Words || got.n != want.n ||
		!slices.Equal(got.care, want.care) || !slices.Equal(got.val, want.val) ||
		!slices.Equal(got.careCount, want.careCount) {
		t.Fatalf("%d×%d: Pack differs from the per-trit reference", s.Len(), s.Width)
	}
	wantRows := refPackRows(s)
	for _, gotRows := range []*PackedRows{PackRows(s), PackRowsInto(dirty, s)} {
		if gotRows.Width != wantRows.Width || gotRows.N != wantRows.N || gotRows.Words != wantRows.Words ||
			!slices.Equal(gotRows.careBuf, wantRows.careBuf) || !slices.Equal(gotRows.valBuf, wantRows.valBuf) {
			t.Fatalf("%d×%d: PackRows differs from the per-trit reference", s.Len(), s.Width)
		}
		for i := 0; i < s.Width; i++ {
			c, v := gotRows.RowWords(i)
			if !slices.Equal(c, wantRows.care[i]) || !slices.Equal(v, wantRows.val[i]) {
				t.Fatalf("%d×%d: PackRows row view %d differs from the reference", s.Len(), s.Width, i)
			}
		}
	}
	total := 0
	for j, c := range s.Cubes {
		if got, want := c.XCount(), refXCount(c); got != want {
			t.Fatalf("%d×%d: cube %d XCount %d, per-trit %d", s.Len(), s.Width, j, got, want)
		}
		total += refXCount(c)
	}
	if got := s.XCount(); got != total {
		t.Fatalf("%d×%d: Set.XCount %d, per-trit %d", s.Len(), s.Width, got, total)
	}
}

// dirtyRows returns a snapshot whose buffers are large and full of
// ones, so a PackRowsInto that skipped a word would show it.
func dirtyRows() *PackedRows {
	p := PackRows(MustParseSet(strings.Repeat("1", 210)))
	p.careBuf = slices.Grow(p.careBuf[:0], 210*4)[:210*4]
	p.valBuf = slices.Grow(p.valBuf[:0], 210*4)[:210*4]
	for i := range p.careBuf {
		p.careBuf[i], p.valBuf[i] = ^uint64(0), ^uint64(0)
	}
	return p
}

// FuzzPackRows pins the word-at-a-time packers and XCount to their
// per-trit references on ParseSet-built sets of width 0–200 and 0–200
// cubes: bit-identical planes, care counts and X counts.
func FuzzPackRows(f *testing.F) {
	for _, width := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
			f.Add(width, n, 50, int64(width*1000+n))
		}
	}
	f.Fuzz(func(t *testing.T, width, n, xPct int, seed int64) {
		width, n, xPct = mod(width, 201), mod(n, 201), mod(xPct, 101)
		s := parsedSet(t, rand.New(rand.NewSource(seed)), width, n, xPct)
		checkPackMatchesRef(t, s, dirtyRows())
	})
}

func mod(a, m int) int { return (a%m + m) % m }

// TestPackMatchesRefShapes walks the word and byte boundaries of both
// dimensions at X densities of 0, 50 and 100%, reusing one dirty
// snapshot across shapes.
func TestPackMatchesRefShapes(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	dirty := dirtyRows()
	for _, width := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129} {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130} {
			for _, xPct := range []int{0, 50, 100} {
				checkPackMatchesRef(t, parsedSet(t, r, width, n, xPct), dirty)
			}
		}
	}
}

// TestXCountMatchesRef checks XCount at every width 0–17 — no full
// word, one, and one plus every tail length — on the unaligned
// sub-slices ParseSet builds, whose start offsets within a word vary
// with the width.
func TestXCountMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for width := 0; width <= 17; width++ {
		for _, xPct := range []int{0, 30, 100} {
			s := parsedSet(t, r, width, 9, xPct)
			for j, c := range s.Cubes {
				if got, want := c.XCount(), refXCount(c); got != want {
					t.Fatalf("width %d cube %d: XCount %d, per-trit %d", width, j, got, want)
				}
			}
		}
	}
}

// TestTranspose64 checks the bit transpose against its definition and
// that applying it twice is the identity.
func TestTranspose64(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	var a [64]uint64
	for i := range a {
		a[i] = r.Uint64()
	}
	orig := a
	transpose64(&a)
	for row := 0; row < 64; row++ {
		for col := 0; col < 64; col++ {
			if a[col]>>row&1 != orig[row]>>col&1 {
				t.Fatalf("transposed bit (%d,%d) wrong", col, row)
			}
		}
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transposing twice is not the identity")
	}
}

func benchPack(b *testing.B, width, n int) *Set {
	b.Helper()
	s := parsedSet(b, rand.New(rand.NewSource(1)), width, n, 85)
	b.ReportAllocs()
	b.ResetTimer()
	return s
}

// BenchmarkPack is the cube-major snapshot I-Ordering and X-Stat
// build, at the fill-cold shape (768 pins × 1250 cubes, 85% X) and at
// b01 scale (5 pins × 12 cubes).
func BenchmarkPack(b *testing.B) {
	for _, sh := range []struct {
		name     string
		width, n int
	}{{"768x1250", 768, 1250}, {"5x12", 5, 12}} {
		b.Run(sh.name, func(b *testing.B) {
			s := benchPack(b, sh.width, sh.n)
			for i := 0; i < b.N; i++ {
				Pack(s)
			}
		})
	}
}

// BenchmarkParsePacked decodes request strings straight into the
// snapshot, at the same two shapes as BenchmarkPack: ParseSet plus
// Pack in one pass, with no trit matrix in between.
func BenchmarkParsePacked(b *testing.B) {
	for _, sh := range []struct {
		name     string
		width, n int
	}{{"768x1250", 768, 1250}, {"5x12", 5, 12}} {
		b.Run(sh.name, func(b *testing.B) {
			lines := PackRows(benchPack(b, sh.width, sh.n)).Strings()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ParsePacked(lines); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackRows is the row-major planes DP-fill scans, repacked
// into one reused snapshot, at the same two shapes. At b01 scale the
// whole set is one mostly empty 64×64 tile, so the two transposes
// dominate.
func BenchmarkPackRows(b *testing.B) {
	for _, sh := range []struct {
		name     string
		width, n int
	}{{"768x1250", 768, 1250}, {"5x12", 5, 12}} {
		b.Run(sh.name, func(b *testing.B) {
			s := benchPack(b, sh.width, sh.n)
			var p *PackedRows
			for i := 0; i < b.N; i++ {
				p = PackRowsInto(p, s)
			}
		})
	}
}
