package cube

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// packMatchesScalar reports whether every packed distance of s equals
// its per-trit count.
func packMatchesScalar(s *Set) bool {
	p := Pack(s)
	for i := 0; i < s.Len(); i++ {
		if p.CareCount(i) != s.Cubes[i].CareCount() {
			return false
		}
		care, val := p.CubeWords(i)
		for pin, tr := range s.Cubes[i] {
			bit := uint64(1) << (pin % 64)
			if (care[pin/64]&bit != 0) != tr.IsCare() || (val[pin/64]&bit != 0) != (tr == One) {
				return false
			}
		}
		for j := 0; j < s.Len(); j++ {
			a, b := s.Cubes[i], s.Cubes[j]
			both := 0
			for pin := range a {
				if a[pin].IsCare() && b[pin].IsCare() {
					both++
				}
			}
			hd, gotBoth := p.Distance(i, j)
			if hd != a.HammingDistance(b) || gotBoth != both {
				return false
			}
			if float64(p.Expected2(i, j)) != 2*a.ExpectedDistance(b) {
				return false
			}
		}
	}
	return true
}

func TestPackMatchesScalarDistances(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return packMatchesScalar(randomSet(r, 1+r.Intn(200), 2+r.Intn(8), 0.5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// Widths on either side of the word boundary, where the last word
	// is full, one bit short or one bit into a second word.
	r := rand.New(rand.NewSource(8))
	for _, width := range []int{0, 1, 63, 64, 65} {
		for _, xProb := range []float64{0, 0.5, 1} {
			if s := randomSet(r, width, 6, xProb); !packMatchesScalar(s) {
				t.Errorf("width %d, X probability %.1f: packed distances differ from scalar\n%v", width, xProb, s)
			}
		}
	}
}

func TestPackSnapshotSemantics(t *testing.T) {
	s := MustParseSet("0X", "11")
	p := Pack(s)
	s.Cubes[0][0] = One // mutate after packing
	if hd, _ := p.Distance(0, 1); hd != 1 {
		t.Fatalf("packed view changed with source mutation: HD=%d", hd)
	}
}

func TestPackRowsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Cross the 64-column word boundary regularly.
		s := randomSet(r, 1+r.Intn(8), 1+r.Intn(200), 0.6)
		return PackRows(s).Unpack().Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPackRowsAtMatchesSource(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := randomSet(r, 7, 130, 0.5)
	p := PackRows(s)
	for i := 0; i < s.Width; i++ {
		for j := 0; j < s.Len(); j++ {
			if p.At(i, j) != s.Cubes[j][i] {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, p.At(i, j), s.Cubes[j][i])
			}
		}
	}
}

func TestPackRowsFillSpan(t *testing.T) {
	// 200 columns spans four words; fill ranges that start, cross and end
	// at word boundaries.
	n := 200
	s := NewSet(1)
	for j := 0; j < n; j++ {
		s.Append(New(1))
	}
	for _, span := range [][2]int{{0, 0}, {0, 63}, {5, 64}, {63, 64}, {64, 127}, {60, 140}, {199, 199}, {10, 5}} {
		p := PackRows(s)
		p.FillSpan(0, span[0], span[1], One)
		got := p.Unpack()
		for j := 0; j < n; j++ {
			want := X
			if j >= span[0] && j <= span[1] {
				want = One
			}
			if got.Cubes[j][0] != want {
				t.Fatalf("span %v: column %d = %v, want %v", span, j, got.Cubes[j][0], want)
			}
		}
	}
	// Zero fills specify without setting value bits.
	p := PackRows(s)
	p.FillSpan(0, 70, 80, Zero)
	if p.At(0, 75) != Zero || p.At(0, 69) != X || p.At(0, 81) != X {
		t.Fatal("zero FillSpan misplaced")
	}
}

func TestPackWordBoundary(t *testing.T) {
	// Width 65 exercises the second word.
	a := New(65)
	b := New(65)
	a[64] = Zero
	b[64] = One
	s := NewSet(65)
	s.Append(a)
	s.Append(b)
	p := Pack(s)
	if p.Words != 2 {
		t.Fatalf("Words = %d", p.Words)
	}
	hd, both := p.Distance(0, 1)
	if hd != 1 {
		t.Fatalf("HD across word boundary = %d", hd)
	}
	if p.Width-both != 64 {
		t.Fatalf("XUnion = %d, want 64", p.Width-both)
	}
}

func TestPackRowsIntoReusesBuffers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	big := randomSet(r, 90, 200, 0.6)
	small := randomSet(r, 7, 30, 0.4)
	odd := randomSet(r, 91, 130, 0.8)

	p := PackRows(big)
	// Repacking a smaller then a differently shaped set into the same
	// snapshot must produce exactly what a fresh pack produces — any
	// stale word from the previous occupant is a corruption.
	for _, s := range []*Set{small, odd, big, small} {
		p = PackRowsInto(p, s)
		fresh := PackRows(s)
		if p.Width != fresh.Width || p.N != fresh.N || p.Words != fresh.Words {
			t.Fatalf("shape (%d,%d,%d), want (%d,%d,%d)",
				p.Width, p.N, p.Words, fresh.Width, fresh.N, fresh.Words)
		}
		for i := 0; i < p.Width; i++ {
			for j := 0; j < p.N; j++ {
				if p.At(i, j) != fresh.At(i, j) {
					t.Fatalf("reused pack At(%d,%d) = %v, fresh = %v", i, j, p.At(i, j), fresh.At(i, j))
				}
			}
		}
	}
}

func TestColumnWordMatchesAt(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	s := randomSet(r, 9, 170, 0.5)
	p := PackRows(s)
	for _, base := range []int{0, 1, 63, 64, 65, 100, 127, 128, 150, 169} {
		for i := 0; i < p.Width; i++ {
			care, val := p.ColumnWord(i, base)
			for b := 0; b < 64; b++ {
				j := base + b
				want := X
				if j < p.N {
					want = p.At(i, j)
				}
				var got Trit
				switch {
				case care&(1<<uint(b)) == 0:
					got = X
				case val&(1<<uint(b)) != 0:
					got = One
				default:
					got = Zero
				}
				if got != want {
					t.Fatalf("row %d base %d bit %d: got %v, want %v", i, base, b, got, want)
				}
			}
		}
	}
}

func TestPackedToggleProfileMatchesSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(150), 2+r.Intn(140), r.Float64())
		p := PackRows(s)
		want := s.ToggleProfile()
		got := p.ToggleProfile()
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return p.PeakToggles() == s.PeakToggles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// At returns the trit of row i at column j: the per-trit read the
// plane tests check PackedRows against.
func (p *PackedRows) At(i, j int) Trit {
	w, bit := j/64, uint64(1)<<(j%64)
	if p.care[i][w]&bit == 0 {
		return X
	}
	if p.val[i][w]&bit != 0 {
		return One
	}
	return Zero
}
