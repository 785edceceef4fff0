package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cube"
)

func TestOptimalPeakRefusesLarge(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := randomSet(r, 3, 10, 0.5)
	if _, _, err := OptimalPeak(s); err == nil {
		t.Fatal("n=10 accepted")
	}
}

func TestOptimalPeakDegenerate(t *testing.T) {
	s := cube.MustParseSet("0X1")
	peak, perm, err := OptimalPeak(s)
	if err != nil || peak != 0 || len(perm) != 1 {
		t.Fatalf("peak=%d perm=%v err=%v", peak, perm, err)
	}
}

func TestOptimalPeakKnownInstance(t *testing.T) {
	// Two complementary dense cubes and two all-X cubes: the optimum
	// separates the dense pair with X cubes; placing them adjacent
	// would cost width toggles, separated costs ceil(w / 3) per cycle
	// after spreading... verify against the exhaustive value directly
	// and check the heuristics cannot beat it.
	s := cube.MustParseSet("0000", "1111", "XXXX", "XXXX")
	opt, perm, err := OptimalPeak(s)
	if err != nil {
		t.Fatal(err)
	}
	if !isPermutation(perm, 4) {
		t.Fatalf("perm = %v", perm)
	}
	// Toggles cannot be fewer than ceil(4 toggles / 3 cycles) = 2.
	if opt != 2 {
		t.Fatalf("optimal peak = %d, want 2", opt)
	}
	got, err := core.Bottleneck(s.Reorder(perm))
	if err != nil || got != opt {
		t.Fatalf("returned perm achieves %d, claims %d", got, opt)
	}
}

// TestPropertyHeuristicsNeverBeatOptimal: the exhaustive optimum lower-
// bounds every heuristic ordering's DP-fill peak, and the returned
// permutation attains the claimed value.
func TestPropertyHeuristicsNeverBeatOptimal(t *testing.T) {
	orderers := append(All(), ISA(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(5), 2+r.Intn(5), 0.5)
		opt, optPerm, err := OptimalPeak(s)
		if err != nil {
			return false
		}
		if got, err := core.Bottleneck(s.Reorder(optPerm)); err != nil || got != opt {
			return false
		}
		for _, o := range orderers {
			perm, err := o.OrderPacked(cube.Pack(s))
			if err != nil {
				return false
			}
			peak, err := core.Bottleneck(s.Reorder(perm))
			if err != nil || peak < opt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIOrderingNearOptimalOnSmallSets quantifies the gap left by the
// paper's open question: across random small instances, how far is
// I-Ordering + DP-fill from the joint optimum?
func TestIOrderingNearOptimalOnSmallSets(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	total, gap := 0, 0
	for trial := 0; trial < 30; trial++ {
		s := randomSet(r, 4, 6, 0.6)
		opt, _, err := OptimalPeak(s)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := Interleaved().Order(s)
		if err != nil {
			t.Fatal(err)
		}
		peak, err := core.Bottleneck(s.Reorder(perm))
		if err != nil {
			t.Fatal(err)
		}
		total++
		gap += peak - opt
		if peak < opt {
			t.Fatalf("heuristic beat the exhaustive optimum: %d < %d", peak, opt)
		}
	}
	t.Logf("I-Ordering average gap to joint optimum: %.2f toggles over %d instances",
		float64(gap)/float64(total), total)
}
