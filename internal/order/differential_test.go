package order

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
)

// matchReference checks every orderer that runs on a packed snapshot
// against its reference in ref_test.go: identical X-Stat and I-Ordering
// permutations, identical Algorithm 3 traces, BottleneckOrder equal to
// the reordered-set bound for each of those orders, and (for n <= 5)
// the same exhaustive optimum and witness.
func matchReference(t *testing.T, s *cube.Set) {
	t.Helper()
	if got, want := xstat(cube.Pack(s)), refXStat(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("X-Stat perm = %v, reference %v\n%v", got, want, s)
	}
	if got, want := xstat(cube.Pack(s)), refPackedXStat(cube.Pack(s)); !reflect.DeepEqual(got, want) {
		t.Fatalf("X-Stat perm = %v, index-list scan %v\n%v", got, want, s)
	}
	iperm, traces, err := InterleavedTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	wantPerm, wantTraces, err := refInterleavedTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(iperm, wantPerm) || !reflect.DeepEqual(traces, wantTraces) {
		t.Fatalf("I-Ordering = %v %+v, reference %v %+v\n%v", iperm, traces, wantPerm, wantTraces, s)
	}

	n := s.Len()
	reverse := make([]int, n)
	for i := range reverse {
		reverse[i] = n - 1 - i
	}
	p := cube.Pack(s)
	for _, perm := range [][]int{Identity(n), reverse, refXStat(s), iperm} {
		got, err := core.BottleneckOrder(p, perm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBottleneck(s.Reorder(perm))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("BottleneckOrder(%v) = %d, reference %d\n%v", perm, got, want, s)
		}
	}

	if n <= 5 {
		peak, perm, err := OptimalPeak(s)
		if err != nil {
			t.Fatal(err)
		}
		wantPeak, wantPerm, err := refOptimalPeak(s)
		if err != nil {
			t.Fatal(err)
		}
		if peak != wantPeak || !reflect.DeepEqual(perm, wantPerm) {
			t.Fatalf("OptimalPeak = %d %v, reference %d %v\n%v", peak, perm, wantPeak, wantPerm, s)
		}
	}
}

// uniformSet is a width×n set whose every trit is t.
func uniformSet(width, n int, t cube.Trit) *cube.Set {
	s := cube.NewSet(width)
	for j := 0; j < n; j++ {
		c := make(cube.Cube, width)
		for i := range c {
			c[i] = t
		}
		s.Append(c)
	}
	return s
}

// withDuplicates returns s with every cube repeated: equal cubes tie on
// both X-Stat keys and on care count, so only the index tie-breaks
// separate them.
func withDuplicates(s *cube.Set) *cube.Set {
	d := cube.NewSet(s.Width)
	for _, c := range s.Cubes {
		d.Append(c.Clone())
		d.Append(c.Clone())
	}
	return d
}

func TestOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, width := range []int{0, 1, 63, 64, 65} {
		for _, n := range []int{0, 1, 2, 3, 5, 17} {
			for _, xProb := range []float64{0, 0.5, 0.85, 1} {
				s := randomSet(r, width, n, xProb)
				matchReference(t, s)
				if n <= 3 {
					matchReference(t, withDuplicates(s))
				}
			}
			matchReference(t, uniformSet(width, n, cube.X))
			matchReference(t, uniformSet(width, n, cube.One))
		}
	}
	// Larger, ATPG-like shapes: care density varies per cube, so the
	// X-Stat prune and the multi-word sweep both get exercised.
	for trial := 0; trial < 12; trial++ {
		s := atpgSet(r, 1+r.Intn(300), 2+r.Intn(90), 0.82)
		matchReference(t, s)
		if trial%4 == 0 {
			matchReference(t, withDuplicates(s))
		}
	}
}

// TestXStatTies pins the X-Stat scan's tie-breaks to the per-trit and
// index-list references on the sets where only a tie-break decides:
// duplicate cubes, all-X cubes, distinct cubes with equal (hd, both)
// against the tail at different indices, widths below one word (no
// second word to prune on) and zero width.
func TestXStatTies(t *testing.T) {
	sets := map[string]*cube.Set{
		"duplicates":   cube.MustParseSet("0101", "1X1X", "0101", "1X1X", "0101"),
		"all-X":        uniformSet(70, 6, cube.X),
		"all-X tail":   cube.MustParseSet("0110", "XXXX", "XXXX", "0XXX", "XXXX"),
		"equal pairs":  cube.MustParseSet("0000", "1XXX", "X1XX", "XX1X", "XXX1", "11XX", "X11X"),
		"equal both":   cube.MustParseSet("00XX", "0XX1", "X0X1", "XX01", "0X1X"),
		"width 0":      uniformSet(0, 5, cube.X),
		"width 1":      cube.MustParseSet("X", "0", "1", "X", "0", "1"),
		"width 63":     withDuplicates(atpgSet(rand.New(rand.NewSource(3)), 63, 9, 0.8)),
		"two words":    withDuplicates(atpgSet(rand.New(rand.NewSource(4)), 100, 9, 0.9)),
		"second word":  cube.MustParseSet("X"+strings.Repeat("X", 63)+"01", strings.Repeat("X", 64)+"10", strings.Repeat("X", 64)+"00", strings.Repeat("X", 64)+"0X"),
		"single cube":  cube.MustParseSet("01X"),
		"only ties":    uniformSet(65, 7, cube.One),
		"X-only start": cube.MustParseSet("XX", "XX", "XX"),
	}
	for name, s := range sets {
		p := cube.Pack(s)
		got := xstat(p)
		if want := refXStat(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: X-Stat perm = %v, reference %v", name, got, want)
		}
		if want := refPackedXStat(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: X-Stat perm = %v, index-list scan %v", name, got, want)
		}
	}
}

// TestOrderPackedMatchesOrder: each orderer's set edge, Func.Order,
// gives the permutation its packed entry point gives.
func TestOrderPackedMatchesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, ord := range []*Func{Tool(), XStat(), Interleaved(), ISA(5)} {
		for _, n := range []int{0, 1, 2, 3, 40} {
			s := randomSet(r, 1+r.Intn(130), n, 0.8)
			want, err := ord.Order(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ord.OrderPacked(cube.Pack(s))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: OrderPacked = %v %v, Order %v", ord.Name(), n, got, err, want)
			}
		}
	}
}

// TestBottleneckOrderRejectsNonPermutations: a wrong length, an index
// out of range or a repeated index is an error, not a silent bound.
func TestBottleneckOrderRejectsNonPermutations(t *testing.T) {
	p := cube.Pack(cube.MustParseSet("0X", "1X", "X1"))
	for _, perm := range [][]int{{0, 1}, {0, 1, 3}, {0, -1, 2}, {0, 1, 1}} {
		if _, err := core.BottleneckOrder(p, perm); err == nil {
			t.Errorf("BottleneckOrder(%v) accepted", perm)
		}
	}
}

// fuzzSet decodes a cube set from fuzz input: width and n come from
// their bytes, trits from data two bits at a time (0, 1, then X for
// both remaining codes) and are X once data runs out. With dup set,
// the second half of the cubes repeats the first.
func fuzzSet(width, n uint8, dup bool, data []byte) *cube.Set {
	w, m := int(width)%140, int(n)%24
	s := cube.NewSet(w)
	k := 0
	for j := 0; j < m; j++ {
		if dup && j >= (m+1)/2 {
			s.Append(s.Cubes[j-(m+1)/2].Clone())
			continue
		}
		c := make(cube.Cube, w)
		for i := range c {
			c[i] = cube.X
			if k/4 < len(data) {
				switch (data[k/4] >> (2 * (k % 4))) & 3 {
				case 0:
					c[i] = cube.Zero
				case 1:
					c[i] = cube.One
				}
			}
			k++
		}
		s.Append(c)
	}
	return s
}

func FuzzOrderMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(7), false, []byte("\x1b\xe4\x00\xff\x42"))
	f.Add(uint8(65), uint8(3), true, []byte("\x55\xaa\x0f\xf0\x33\xcc\x01\x10"))
	f.Add(uint8(64), uint8(12), false, []byte{})
	f.Fuzz(func(t *testing.T, width, n uint8, dup bool, data []byte) {
		matchReference(t, fuzzSet(width, n, dup, data))
	})
}
