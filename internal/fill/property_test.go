package fill

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
)

// randomCubeSet draws an n x width cube set with the given X density.
func randomCubeSet(r *rand.Rand, width, n int, xProb float64) *cube.Set {
	s := cube.NewSet(width)
	for v := 0; v < n; v++ {
		c := make(cube.Cube, width)
		for i := range c {
			switch {
			case r.Float64() < xProb:
				c[i] = cube.X
			case r.Intn(2) == 0:
				c[i] = cube.Zero
			default:
				c[i] = cube.One
			}
		}
		s.Append(c)
	}
	return s
}

// TestDPFillOptimalityProperty is the paper's central claim as a
// randomized property: on every cube set, DP-fill's peak toggle count
// is (1) a legal completion, (2) exactly the BCP lower bound for the
// ordering, and (3) no worse than every baseline filler — the constant
// fills, R-fill, MT-fill, B-fill, Adj-fill and X-Stat.
func TestDPFillOptimalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	dp := DP()
	for trial := 0; trial < trials; trial++ {
		width := 1 + r.Intn(40)
		n := 2 + r.Intn(30)
		xProb := []float64{0.2, 0.5, 0.8, 0.95}[trial%4]
		s := randomCubeSet(r, width, n, xProb)

		filled, err := fillSet(dp, s)
		if err != nil {
			t.Fatalf("trial %d (%dx%d): DP-fill: %v", trial, n, width, err)
		}
		if !s.Covers(filled) {
			t.Fatalf("trial %d (%dx%d): DP-fill output is not a completion", trial, n, width)
		}
		dpPeak := filled.PeakToggles()

		bound, err := core.Bottleneck(s)
		if err != nil {
			t.Fatalf("trial %d: bottleneck: %v", trial, err)
		}
		if dpPeak != bound {
			t.Fatalf("trial %d (%dx%d): DP-fill peak %d != BCP lower bound %d",
				trial, n, width, dpPeak, bound)
		}

		baselines := append(Baselines(int64(trial)), Adj(), XStat())
		for _, bl := range baselines {
			if bl.Name() == "DP-fill" {
				continue
			}
			bf, err := fillSet(bl, s)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, bl.Name(), err)
			}
			if !s.Covers(bf) {
				t.Fatalf("trial %d: %s output is not a completion", trial, bl.Name())
			}
			if p := bf.PeakToggles(); p < dpPeak {
				t.Fatalf("trial %d (%dx%d, X=%.2f): %s peak %d beats DP-fill's %d — optimality violated",
					trial, n, width, xProb, bl.Name(), p, dpPeak)
			}
		}
	}
}

// TestDPFillOptimalUnderEveryOrderingProperty re-checks the bound after
// random reorderings: optimality is per-ordering, so any permutation of
// the set must still satisfy peak == bound ≤ every baseline.
func TestDPFillOptimalUnderEveryOrderingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dp := DP()
	for trial := 0; trial < 20; trial++ {
		s := randomCubeSet(r, 4+r.Intn(24), 4+r.Intn(16), 0.7)
		perm := r.Perm(s.Len())
		re := s.Reorder(perm)
		filled, err := fillSet(dp, re)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bound, err := core.Bottleneck(re)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p := filled.PeakToggles(); p != bound {
			t.Fatalf("trial %d: reordered peak %d != bound %d", trial, p, bound)
		}
	}
}
