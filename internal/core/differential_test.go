package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cube"
)

// fillReference is the unpacked per-trit fill path: serial Map, then
// fillMapping's solve + clone-based Reconstruct. The packed FillWith
// must match it bit for bit.
func fillReference(s *cube.Set) (*cube.Set, *Result, error) {
	return fillMapping(Map(s))
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Peak != want.Peak || got.Total != want.Total || got.LowerBound != want.LowerBound ||
		got.NumIntervals != want.NumIntervals || got.ForcedUnit != want.ForcedUnit {
		t.Fatalf("result mismatch: got %+v want %+v", got, want)
	}
	if len(got.Profile) != len(want.Profile) {
		t.Fatalf("profile length %d, want %d", len(got.Profile), len(want.Profile))
	}
	for j := range got.Profile {
		if got.Profile[j] != want.Profile[j] {
			t.Fatalf("profile[%d] = %d, want %d", j, got.Profile[j], want.Profile[j])
		}
	}
}

// TestFillMatchesReference pins the packed arena-backed FillWith to the
// per-trit reference path, bit for bit, across shapes that cover word
// boundaries, degenerate sizes, and X densities from none to all.
func TestFillMatchesReference(t *testing.T) {
	shapes := []struct {
		width, n int
		xProb    float64
	}{
		{1, 1, 0.5},
		{1, 300, 0.9},   // one row, many words
		{5, 2, 0.5},     // single cycle
		{64, 64, 0.5},   // exactly one word
		{3, 65, 0.8},    // word boundary + 1
		{40, 127, 0.6},  // just under two words
		{40, 129, 0.6},  // just over two words
		{200, 30, 0.95}, // X-dominated
		{30, 200, 0.0},  // fully specified: no intervals at all
		{17, 130, 0.3},  // care-dominated
		{150, 150, 0.7}, // transpose-tile interior
		{300, 90, 0.85}, // more rows than a tile
	}
	for si, sh := range shapes {
		r := rand.New(rand.NewSource(int64(100 + si)))
		s := randomSet(r, sh.width, sh.n, sh.xProb)
		want, wantRes, err := fillReference(s)
		if err != nil {
			t.Fatalf("shape %d: reference: %v", si, err)
		}
		for _, shards := range []int{1, 2, 3, 7} {
			got, gotRes, err := FillWith(s, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shape %d shards %d: %v", si, shards, err)
			}
			if !got.Equal(want) {
				t.Fatalf("shape %d shards %d: filled set differs from reference", si, shards)
			}
			sameResult(t, gotRes, wantRes)
			if !s.Covers(got) {
				t.Fatalf("shape %d shards %d: output is not a completion of the input", si, shards)
			}
		}
	}
}

// TestFillPackedMatchesReference pins the served kernel entry, which
// builds its rows from a packed snapshot through a permutation, to the
// per-trit reference on the reordered set, and its planes and trace
// counters to FillPacked on a fresh snapshot of that set, for the
// identity (nil) and random orders across word-boundary shapes.
func TestFillPackedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, sh := range []struct{ width, n int }{{0, 3}, {1, 1}, {5, 2}, {63, 64}, {64, 65}, {65, 130}, {200, 70}} {
		for _, xProb := range []float64{0, 0.6, 0.9, 1} {
			s := randomSet(r, sh.width, sh.n, xProb)
			p := cube.Pack(s)
			for _, perm := range [][]int{nil, r.Perm(sh.n)} {
				ordered := s
				if perm != nil {
					ordered = s.Reorder(perm)
				}
				want, wantRes, err := fillReference(ordered)
				if err != nil {
					t.Fatal(err)
				}
				var trGot, trWant Trace
				got, gotRes, err := FillPacked(p, perm, Options{Shards: 1, Trace: &trGot})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, gotRes, wantRes)
				if !got.Unpack().Equal(want) {
					t.Fatalf("%dx%d X %.1f perm %v: FillPacked differs from the reference", sh.width, sh.n, xProb, perm)
				}
				planes, _, err := FillPacked(cube.Pack(ordered), nil, Options{Shards: 1, Trace: &trWant})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Strings(), planes.Strings()) || trGot.Intervals != trWant.Intervals ||
					trGot.ForcedUnit != trWant.ForcedUnit || trGot.Rows != trWant.Rows || trGot.Cols != trWant.Cols {
					t.Fatalf("%dx%d X %.1f perm %v: FillPacked through perm and on the reordered set disagree", sh.width, sh.n, xProb, perm)
				}
			}
		}
	}
}

// TestFillArenaReuse hammers the pooled arena sequentially with
// alternating shapes, so stale planes or interval lists from a larger
// previous fill would corrupt a smaller later one (and vice versa).
func TestFillArenaReuse(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	sets := []*cube.Set{
		randomSet(r, 90, 200, 0.8),
		randomSet(r, 5, 9, 0.6),
		randomSet(r, 130, 70, 0.9),
		randomSet(r, 1, 2, 0.5),
	}
	wants := make([]*cube.Set, len(sets))
	for i, s := range sets {
		var err error
		wants[i], _, err = fillReference(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < 8; iter++ {
		for i, s := range sets {
			got, _, err := FillWith(s, Options{Shards: 1})
			if err != nil {
				t.Fatalf("iter %d set %d: %v", iter, i, err)
			}
			if !got.Equal(wants[i]) {
				t.Fatalf("iter %d set %d: arena reuse corrupted the fill", iter, i)
			}
		}
	}
}

// TestFillConcurrentArena runs many fills in parallel over shared
// inputs; under -race this is the proof that the sync.Pool arenas and
// the sharded scans never alias across concurrent jobs.
func TestFillConcurrentArena(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s1 := randomSet(r, 60, 140, 0.85)
	s2 := randomSet(r, 33, 65, 0.5)
	want1, _, err := fillReference(s1)
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := fillReference(s2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, want := s1, want1
			if g%2 == 1 {
				s, want = s2, want2
			}
			for iter := 0; iter < 6; iter++ {
				got, _, err := FillWith(s, Options{Shards: 1 + g%3})
				if err != nil {
					errc <- err
					return
				}
				if !got.Equal(want) {
					t.Errorf("goroutine %d iter %d: concurrent fill differs from reference", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestBottleneckMatchesFillPeak pins the scan-only Bottleneck to the
// peak the full fill achieves (equal by the optimality theorem), across
// the pooled-arena path.
func TestBottleneckMatchesFillPeak(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 4+r.Intn(80), 2+r.Intn(120), r.Float64())
		_, res, err := FillWith(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := Bottleneck(s)
		if err != nil {
			t.Fatal(err)
		}
		if lb != res.Peak {
			t.Fatalf("seed %d: Bottleneck = %d, fill peak = %d", seed, lb, res.Peak)
		}
	}
}

// TestPackedToggleStatsMatchUnpacked pins the word-parallel toggle
// statistics (packed planes and packed Set scan) to a scalar per-trit
// recount.
func TestPackedToggleStatsMatchUnpacked(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		s := randomSet(r, 1+r.Intn(90), 2+r.Intn(150), r.Float64())

		// Scalar reference: count jointly specified differing pins.
		n := s.Len()
		wantProfile := make([]int, n-1)
		for j := 0; j+1 < n; j++ {
			a, b := s.Cubes[j], s.Cubes[j+1]
			for i := range a {
				if a[i] != cube.X && b[i] != cube.X && a[i] != b[i] {
					wantProfile[j]++
				}
			}
		}
		wantPeak, wantTotal := 0, 0
		for _, v := range wantProfile {
			if v > wantPeak {
				wantPeak = v
			}
			wantTotal += v
		}

		peak, total, profile := s.ToggleStats()
		if peak != wantPeak || total != wantTotal {
			t.Fatalf("seed %d: ToggleStats = (%d,%d), want (%d,%d)", seed, peak, total, wantPeak, wantTotal)
		}
		pr := cube.PackRows(s)
		packedProfile := pr.ToggleProfile()
		if len(profile) != n-1 || len(packedProfile) != n-1 {
			t.Fatalf("seed %d: profile lengths %d/%d, want %d", seed, len(profile), len(packedProfile), n-1)
		}
		for j := range wantProfile {
			if profile[j] != wantProfile[j] {
				t.Fatalf("seed %d: Set profile[%d] = %d, want %d", seed, j, profile[j], wantProfile[j])
			}
			if packedProfile[j] != wantProfile[j] {
				t.Fatalf("seed %d: packed profile[%d] = %d, want %d", seed, j, packedProfile[j], wantProfile[j])
			}
		}
		if pr.PeakToggles() != wantPeak {
			t.Fatalf("seed %d: packed peak %d, want %d", seed, pr.PeakToggles(), wantPeak)
		}
	}
}
