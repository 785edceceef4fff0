package cube

import (
	"encoding/json"
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
// parses back to itself. ParsePacked must agree with both (see
// checkParsePacked); seed draws the permutation its rows are built in.
func checkParseSet(t *testing.T, cubes []string, seed int64) {
	t.Helper()
	got, gotErr := ParseSet(cubes...)
	want, wantErr := refParseSet(cubes...)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ParseSet(%q): error %v, rune decoder %v", cubes, gotErr, wantErr)
	}
	checkParsePacked(t, cubes, got, gotErr, seed)
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

// checkParsePacked requires ParsePacked to accept and reject what
// ParseSet did (set, err), with the same error text. On success its
// planes and care counts must equal Pack(set)'s, its X percentage
// set's, its rows in a seeded random order PackRows(set.Reorder) and
// its unpacked cubes set.Reorder's.
func checkParsePacked(t *testing.T, cubes []string, set *Set, err error, seed int64) {
	t.Helper()
	p, perr := ParsePacked(cubes)
	if (perr == nil) != (err == nil) || (perr != nil && perr.Error() != err.Error()) {
		t.Fatalf("ParsePacked(%q): error %v, ParseSet %v", cubes, perr, err)
	}
	if err != nil {
		return
	}
	want := Pack(set)
	if p.Width != want.Width || p.Words != want.Words || p.n != want.n ||
		!slices.Equal(p.care, want.care) || !slices.Equal(p.val, want.val) ||
		!slices.Equal(p.careCount, want.careCount) {
		t.Fatalf("ParsePacked(%q) differs from Pack(ParseSet)", cubes)
	}
	if p.XCount() != set.XCount() || p.XPercent() != set.XPercent() {
		t.Fatalf("ParsePacked(%q): X count %d (%v%%), ParseSet %d (%v%%)",
			cubes, p.XCount(), p.XPercent(), set.XCount(), set.XPercent())
	}
	perm := rand.New(rand.NewSource(seed)).Perm(set.Len())
	got, wantRows := p.Rows(perm), PackRows(set.Reorder(perm))
	if got.Width != wantRows.Width || got.N != wantRows.N || got.Words != wantRows.Words ||
		!slices.Equal(got.careBuf, wantRows.careBuf) || !slices.Equal(got.valBuf, wantRows.valBuf) {
		t.Fatalf("ParsePacked(%q).Rows(%v) differs from PackRows(Reorder)", cubes, perm)
	}
	if u := p.Unpack(perm); u.Width != set.Width || !u.Equal(set.Reorder(perm)) {
		t.Fatalf("ParsePacked(%q).Unpack(%v) differs from Reorder", cubes, perm)
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
		{strings.Repeat("0", 70), strings.Repeat("0", 9) + "Z" + strings.Repeat("1", 60)}, // bad byte in an 8-byte body
		{strings.Repeat("1", 70), strings.Repeat("1", 67) + "\xff11"},                     // bad byte in the tail
		{strings.Repeat("x", 72), strings.Repeat("y", 72)},                                // near-miss of the x|0x20 test
	}
	for i, cubes := range cases {
		checkParseSet(t, cubes, int64(i))
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
		checkParseSet(t, cubes, int64(trial))
	}
}

// TestDecode64EveryByte runs every byte value through every position of
// an otherwise all-X block: decode64 must flag it bad exactly when
// ParseTrit rejects it, and otherwise set only its own care and value
// bits. The fallback to the per-cube path would hide a byte the fast
// path wrongly rejects; this does not.
func TestDecode64EveryByte(t *testing.T) {
	for b := 0; b < 256; b++ {
		want, err := ParseTrit(rune(b))
		valid := err == nil
		for pos := 0; pos < 64; pos++ {
			block := allX
			block[pos] = byte(b)
			care, val, bad := decode64(string(block[:]))
			if (bad == 0) != valid {
				t.Fatalf("byte %#x at %d: bad %#x, ParseTrit %v", b, pos, bad, err)
			}
			if !valid {
				continue
			}
			wantCare, wantVal := uint64(0), uint64(0)
			if want != X {
				wantCare = 1 << pos
				wantVal = uint64(want) << pos
			}
			if care != wantCare || val != wantVal {
				t.Fatalf("byte %q at %d: care %#x val %#x, want %#x %#x", b, pos, care, val, wantCare, wantVal)
			}
		}
	}
}

// FuzzParseSet splits its input into cubes at newlines and checks the
// table decoder against the rune decoder: identical sets and error
// strings, and String round-trips to the canonical 0/1/X form. Every
// input also goes through ParsePacked (checkParsePacked), its rows
// built in a permutation seeded by the input's length. The seeds walk
// the SWAR decoder's word and byte boundaries in all X spellings, with
// a bad byte in an eight-byte body and in a tail.
func FuzzParseSet(f *testing.F) {
	f.Add("0X1\n1x0\n--1")
	f.Add("01\n1X0")
	f.Add("0é\n01")
	for _, w := range []int{0, 1, 7, 8, 63, 64, 65} {
		a := strings.Repeat("01x-X", 14)[:w]
		b := strings.Repeat("X-1x0", 14)[:w]
		f.Add(a + "\n" + b + "\n" + a)
	}
	f.Add(strings.Repeat("0", 16) + "\n" + "0101Z010" + strings.Repeat("1", 8))
	f.Add(strings.Repeat("x", 65) + "\n" + strings.Repeat("x", 64) + "?")
	f.Fuzz(func(t *testing.T, text string) {
		checkParseSet(t, strings.Split(text, "\n"), int64(len(text)))
	})
}

// TestPackedRowsRenderAndCopy pins the packed output edge to the
// per-trit set across word and transpose-tile boundaries: Strings is
// Cube.String per cube, Unpack decodes the same set, and the
// cube-major copy NewFilled makes of the set with its X read as 1
// writes the strings encoding/json writes for it, after what dst held.
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
		for j := range want {
			want[j] = strings.ReplaceAll(want[j], "X", "1")
			for i, c := range s.Cubes[j] {
				if c == X {
					p.FillSpan(i, j, j, One)
				}
			}
		}
		f, err := NewFilled(p)
		if err != nil {
			t.Fatalf("%dx%d: %v", shape.w, shape.n, err)
		}
		wantJSON, _ := json.Marshal(want)
		if got := f.AppendJSON([]byte("> ")); string(got) != "> "+string(wantJSON) {
			t.Fatalf("%dx%d: AppendJSON %s, want %s", shape.w, shape.n, got, wantJSON)
		}
	}
}

// TestNewFilledRefusesX: a matrix with an X left is not a fill, and
// the error names the first X, in pin order.
func TestNewFilledRefusesX(t *testing.T) {
	_, err := NewFilled(PackRows(MustParseSet("0"+strings.Repeat("1", 69), strings.Repeat("1", 68)+"X0")))
	if err == nil || err.Error() != "cube: pin 68 of cube 1 is X in a filled matrix" {
		t.Fatalf("err %v", err)
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
