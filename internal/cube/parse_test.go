package cube

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refParse is the rune-at-a-time decoder Parse replaced with the byte
// table; the differential and fuzz tests pin Parse to it, error text
// included.
func refParse(s string) (Cube, error) {
	c := make(Cube, 0, len(s))
	for _, r := range s {
		t, err := ParseTrit(r)
		if err != nil {
			return nil, err
		}
		c = append(c, t)
	}
	return c, nil
}

// refParseSet is ParseSet over refParse, one cube at a time.
func refParseSet(cubes ...string) (*Set, error) {
	if len(cubes) == 0 {
		return nil, fmt.Errorf("cube: ParseSet needs at least one cube")
	}
	var set *Set
	for _, s := range cubes {
		c, err := refParse(s)
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

// checkParseSet compares ParseSet with refParseSet on one input and,
// when it parses, that every cube renders to its canonical text and
// parses back to itself.
func checkParseSet(t *testing.T, cubes []string) {
	t.Helper()
	got, gotErr := ParseSet(cubes...)
	want, wantErr := refParseSet(cubes...)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ParseSet(%q): error %v, rune decoder %v", cubes, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Width != want.Width || !got.Equal(want) {
		t.Fatalf("ParseSet(%q) = %v, rune decoder %v", cubes, got.Cubes, want.Cubes)
	}
	canon := strings.NewReplacer("x", "X", "-", "X")
	for j, c := range got.Cubes {
		text := c.String()
		if text != canon.Replace(cubes[j]) {
			t.Fatalf("cube %q renders as %q", cubes[j], text)
		}
		back, err := Parse(text)
		if err != nil || !back.Equal(c) {
			t.Fatalf("cube %q: %q parses back to %v, %v", cubes[j], text, back, err)
		}
	}
}

func TestParseSetMatchesRuneDecoder(t *testing.T) {
	cases := [][]string{
		{""},
		{"", ""},
		{"0", "1", "x", "X", "-"},
		{"01X", "1x0", "--1"},
		{"01X", "10"},       // ragged
		{"01", "1X0"},       // ragged, longer later
		{"0é", "01"},        // multi-byte rune, same rune count
		{"0é1", "011"},      // multi-byte rune, same byte length
		{"0\xff", "01"},     // invalid UTF-8
		{"012", "0X1"},      // bad ASCII first
		{"0X1", "0Z1"},      // bad ASCII later
		{"0X", "0\x00"},     // NUL
		{"XX", "XX", "1 0"}, // space
		{"\u00a00", "00"},   // non-ASCII space
		{strings.Repeat("01X-x", 40), strings.Repeat("x-X10", 40)},
	}
	for _, cubes := range cases {
		checkParseSet(t, cubes)
	}
	r := rand.New(rand.NewSource(5))
	alphabet := []byte("01xX-01X")
	for trial := 0; trial < 200; trial++ {
		w, n := r.Intn(140), 1+r.Intn(8)
		cubes := make([]string, n)
		for j := range cubes {
			b := make([]byte, w)
			for i := range b {
				b[i] = alphabet[r.Intn(len(alphabet))]
			}
			cubes[j] = string(b)
		}
		checkParseSet(t, cubes)
	}
}

// FuzzParseSet splits its input into cubes at newlines and checks the
// table decoder against the rune decoder: identical sets and error
// strings, and String round-trips to the canonical 0/1/X form.
func FuzzParseSet(f *testing.F) {
	f.Add("0X1\n1x0\n--1")
	f.Add("01\n1X0")
	f.Add("0é\n01")
	f.Fuzz(func(t *testing.T, text string) {
		checkParseSet(t, strings.Split(text, "\n"))
	})
}

// TestPackedRowsRenderAndCopy pins the packed output edge to the
// per-trit set across word and transpose-tile boundaries: Strings is
// Cube.String per cube, Unpack decodes the same set, Clone is deep
// and writing the clone leaves the original alone.
func TestPackedRowsRenderAndCopy(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, shape := range []struct{ w, n int }{{0, 3}, {3, 0}, {1, 1}, {63, 5}, {64, 64}, {65, 65}, {130, 129}, {200, 70}} {
		s := NewSet(shape.w)
		for j := 0; j < shape.n; j++ {
			c := make(Cube, shape.w)
			for i := range c {
				c[i] = Trit(r.Intn(3))
			}
			s.Append(c)
		}
		p := PackRows(s)
		want := make([]string, s.Len())
		for j, c := range s.Cubes {
			want[j] = c.String()
		}
		if got := p.Strings(); !slices.Equal(got, want) {
			t.Fatalf("%dx%d: Strings %q, want %q", shape.w, shape.n, got, want)
		}
		if u := p.Unpack(); !u.Equal(s) || u.Width != s.Width {
			t.Fatalf("%dx%d: Unpack differs from the packed set", shape.w, shape.n)
		}
		cl := p.Clone()
		if !slices.Equal(cl.Strings(), want) {
			t.Fatalf("%dx%d: Clone renders differently", shape.w, shape.n)
		}
		if shape.w > 0 && shape.n > 0 {
			_, val := cl.RowWords(0)
			val[0] ^= 1
			care, _ := cl.RowWords(0)
			care[0] |= 1
			if p.At(0, 0) != s.Cubes[0][0] {
				t.Fatalf("%dx%d: writing the clone reached the original", shape.w, shape.n)
			}
		}
	}
}

func TestCubeAppendTo(t *testing.T) {
	c := MustParse("01X-x")
	if got := string(c.AppendTo([]byte("> "))); got != "> 01XXX" {
		t.Fatalf("AppendTo = %q", got)
	}
	if (Cube{}).String() != "" || Trit(7).Rune() != 'X' {
		t.Fatal("empty cube or out-of-range trit renders wrongly")
	}
}
