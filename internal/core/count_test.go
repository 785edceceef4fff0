package core

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// checkCount requires CountPacked to return FillPacked's Result for p
// in perm order, and its trace to seal with an empty pack stage and the
// result's accounting.
func checkCount(t *testing.T, name string, p *cube.Packed, perm []int) {
	t.Helper()
	_, want, err := FillPacked(p, perm, Options{Shards: 1})
	if err != nil {
		t.Fatalf("%s: FillPacked: %v", name, err)
	}
	tr := &Trace{}
	got, err := CountPacked(p, perm, Options{Trace: tr})
	if err != nil {
		t.Fatalf("%s: CountPacked: %v", name, err)
	}
	sameResult(t, got, want)
	if (got.Profile == nil) != (want.Profile == nil) {
		t.Fatalf("%s: profile %v, FillPacked's %v", name, got.Profile, want.Profile)
	}
	checkStageSum(t, tr)
	if tr.PackNS != 0 || tr.UnpackNS != 0 {
		t.Fatalf("%s: trace stages %+v, want empty pack and unpack", name, tr.StageNS())
	}
	if tr.Rows != p.Width || tr.Cols != p.Len() || tr.Peak != got.Peak || tr.LowerBound != got.LowerBound ||
		tr.Intervals != got.NumIntervals || tr.ForcedUnit != got.ForcedUnit {
		t.Fatalf("%s: trace %+v does not mirror the result %+v", name, tr, got)
	}
}

// TestCountPackedEdgeShapes pins the count path to the fill on the
// shapes where a histogram and a matrix could disagree: no cubes, one
// cube, no pins, word-boundary widths, all-X rows and forced unit
// toggles, each in snapshot order and reversed.
func TestCountPackedEdgeShapes(t *testing.T) {
	cases := []struct {
		name string
		set  *cube.Set
	}{
		{"no cubes", cube.NewSet(5)},
		{"one cube", cube.MustParseSet("0X1X")},
		{"width 0", randomSet(rand.New(rand.NewSource(1)), 0, 4, 0.5)},
		{"width 64", randomSet(rand.New(rand.NewSource(2)), 64, 9, 0.6)},
		{"width 65", randomSet(rand.New(rand.NewSource(3)), 65, 9, 0.6)},
		{"all-X rows", cube.MustParseSet("XXX", "XXX", "XXX")},
		{"all-X row among care", cube.MustParseSet("0X1", "1X0", "0X1")},
		{"forced unit toggles", cube.MustParseSet("01", "10", "01", "10")},
		{"forced and stretched", cube.MustParseSet("0X0", "1XX", "0X1", "XX0")},
	}
	for _, tc := range cases {
		p := cube.Pack(tc.set)
		n := p.Len()
		reversed := make([]int, n)
		for i := range reversed {
			reversed[i] = n - 1 - i
		}
		checkCount(t, tc.name, p, nil)
		checkCount(t, tc.name+" reversed", p, reversed)
	}
}

// TestCountPackedMatchesFillPacked compares the two paths on random
// sets in random orders, X density from none to all.
func TestCountPackedMatchesFillPacked(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for k := 0; k < 300; k++ {
		s := randomSet(r, r.Intn(140), r.Intn(40), []float64{0, 0.5, 0.8, 0.95, 1}[k%5])
		checkCount(t, "random", cube.Pack(s), r.Perm(s.Len()))
	}
}

// TestCountPackedRejectsNonPermutations: the count path shares
// BottleneckOrder's permutation check.
func TestCountPackedRejectsNonPermutations(t *testing.T) {
	p := cube.Pack(cube.MustParseSet("0X", "1X", "X1"))
	for _, perm := range [][]int{{}, {0, 1}, {0, 1, 3}, {0, -1, 2}, {0, 1, 1}} {
		if _, err := CountPacked(p, perm, Options{}); err == nil {
			t.Errorf("CountPacked(%v) accepted", perm)
		}
	}
}
