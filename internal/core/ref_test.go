package core

import (
	"math/rand"
	"testing"

	"repro/internal/bcp"
	"repro/internal/cube"
)

// refBottleneck is the row-major bound BottleneckOrder replaced: pack
// the ordered set into row planes, scan every row for its intervals and
// bound them. It is the reference the cube-major sweep is held to.
func refBottleneck(s *cube.Set) (int, error) {
	ar := getArena()
	defer putArena(ar)
	bcpIvs := ar.bcpIvs[:0]
	if s.Width > 0 && s.Len() > 0 {
		pr := cube.PackRows(s)
		ar.ivs = scanRowsAppend(ar.ivs[:0], pr, 0, s.Width)
		for _, ti := range ar.ivs {
			bcpIvs = append(bcpIvs, ti.Interval())
		}
	}
	ar.bcpIvs = bcpIvs
	inst, err := bcp.NewInstance(maxInt(0, s.Len()-1), bcpIvs)
	if err != nil {
		return 0, err
	}
	return inst.LowerBound(), nil
}

// TestBottleneckOrderMatchesReference: the cube-major sweep on one
// snapshot bounds every order exactly as the row scan bounds the
// reordered set, across word-boundary widths, tiny n and all-X and
// all-care sets.
func TestBottleneckOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, width := range []int{0, 1, 63, 64, 65, 130} {
		for _, n := range []int{0, 1, 2, 3, 8, 70} {
			for _, xProb := range []float64{0, 0.5, 0.9, 1} {
				s := randomSet(r, width, n, xProb)
				p := cube.Pack(s)
				for trial := 0; trial < 3; trial++ {
					perm := r.Perm(n)
					got, err := BottleneckOrder(p, perm)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refBottleneck(s.Reorder(perm))
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("width %d n %d X %.1f perm %v: BottleneckOrder = %d, reference %d",
							width, n, xProb, perm, got, want)
					}
				}
			}
		}
	}
}

// TestBottleneckOrderAllocatesNothing: once the arena has grown to the
// shape, a BottleneckOrder call allocates nothing — the interval list,
// the per-pin sweep state and the bound's scratch all come from pools.
// Growing them per call is what pushes a served I-Ordering request's
// allocation volume up.
func TestBottleneckOrderAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := rand.New(rand.NewSource(17))
	s := randomSet(r, 300, 400, 0.8)
	p := cube.Pack(s)
	perm := r.Perm(s.Len())
	if _, err := BottleneckOrder(p, perm); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { BottleneckOrder(p, perm) }); got != 0 {
		t.Fatalf("%v allocations per warm BottleneckOrder, want 0", got)
	}
}
