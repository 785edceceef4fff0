package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
)

func TestMapShardedMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Column counts around and beyond 64 exercise the word-packed
		// scan's boundary handling.
		s := randomSet(r, 1+r.Intn(40), 1+r.Intn(150), 0.7)
		want := Map(s)
		for _, shards := range []int{1, 2, 3, 7, 64, 0} {
			got := MapSharded(s, shards)
			if !got.Prefilled.Equal(want.Prefilled) ||
				got.NumCycles != want.NumCycles ||
				len(got.Intervals) != len(want.Intervals) {
				return false
			}
			for i := range got.Intervals {
				if got.Intervals[i] != want.Intervals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMapShardedEdgeShapes(t *testing.T) {
	cases := []*cube.Set{
		cube.MustParseSet("X"),                               // single all-X cube
		cube.MustParseSet("0"),                               // single care cube
		cube.MustParseSet("X", "X", "X"),                     // all-X rows
		cube.MustParseSet("0X1", "1X0", "0X0"),               // mixed stretch kinds
		cube.MustParseSet("01", "10"),                        // forced unit toggles only
		cube.NewSet(5),                                       // zero cubes
		randomSet(rand.New(rand.NewSource(9)), 1, 300, 0.9),  // one row, many words
		randomSet(rand.New(rand.NewSource(10)), 64, 64, 0.5), // exactly one word
		randomSet(rand.New(rand.NewSource(11)), 3, 65, 0.8),  // word boundary + 1
	}
	for ci, s := range cases {
		want := Map(s)
		for _, shards := range []int{1, 2, 5, 0} {
			got := MapSharded(s, shards)
			if !got.Prefilled.Equal(want.Prefilled) || len(got.Intervals) != len(want.Intervals) {
				t.Fatalf("case %d shards %d: mapping diverged", ci, shards)
			}
			for i := range got.Intervals {
				if got.Intervals[i] != want.Intervals[i] {
					t.Fatalf("case %d shards %d: interval %d differs", ci, shards, i)
				}
			}
		}
	}
}

// fillSerialReference is Fill on the per-trit reference Map — the
// pre-refactor code path, kept callable for equivalence tests.
func fillSerialReference(t *testing.T, s *cube.Set) *cube.Set {
	t.Helper()
	mp := Map(s)
	filled, _, err := fillMapping(mp)
	if err != nil {
		t.Fatal(err)
	}
	return filled
}

func TestFillShardedByteIdenticalToSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(60), 2+r.Intn(120), 0.7)
		serial, _, err := FillWith(s, Options{Shards: 1})
		if err != nil {
			return false
		}
		for _, shards := range []int{2, 4, 8, 0} {
			sharded, res, err := FillWith(s, Options{Shards: shards})
			if err != nil {
				return false
			}
			// Byte-identical output and unchanged peak.
			if sharded.String() != serial.String() {
				return false
			}
			if res.Peak != serial.PeakToggles() {
				return false
			}
			if !s.Covers(sharded) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFillMatchesPreRefactorReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		s := randomSet(r, 1+r.Intn(50), 2+r.Intn(100), 0.65)
		want := fillSerialReference(t, s)
		got, _, err := FillWith(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("set %d: default Fill diverged from per-trit reference", i)
		}
	}
}
