package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cube"
)

// traceSet builds a random sparse set large enough that every fill
// stage runs (intervals exist, the BCP sweep prunes, the scan shards).
func traceSet(t *testing.T, rows, cols int, seed int64) *cube.Set {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	lines := make([]string, rows)
	for i := range lines {
		var sb strings.Builder
		for j := 0; j < cols; j++ {
			switch {
			case r.Float64() < 0.8:
				sb.WriteByte('X')
			case r.Intn(2) == 0:
				sb.WriteByte('0')
			default:
				sb.WriteByte('1')
			}
		}
		lines[i] = sb.String()
	}
	s, err := cube.ParseSet(lines...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkStageSum pins the explain contract every downstream surface
// relies on: the named stage timings plus the remainder sum exactly to
// the recorded total.
func checkStageSum(t *testing.T, tr *Trace) {
	t.Helper()
	var sum int64
	for _, st := range tr.StageNS() {
		if st.NS < 0 {
			t.Fatalf("stage %s has negative time %d", st.Stage, st.NS)
		}
		sum += st.NS
	}
	if sum != tr.TotalNS {
		t.Fatalf("stage sum %d != total %d", sum, tr.TotalNS)
	}
	if tr.TotalNS <= 0 {
		t.Fatalf("total %d, want > 0", tr.TotalNS)
	}
}

// TestTraceStageSumIdentity: a monolithic fill's trace partitions its
// wall time exactly across the named stages, and mirrors the result's
// peak/bound/interval accounting.
func TestTraceStageSumIdentity(t *testing.T) {
	s := traceSet(t, 64, 96, 11)
	tr := &Trace{}
	filled, res, err := FillWith(s, Options{Shards: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkStageSum(t, tr)
	if tr.Rows != s.Width || tr.Cols != s.Len() {
		t.Fatalf("trace shape %dx%d, want pins=%d vectors=%d", tr.Rows, tr.Cols, s.Width, s.Len())
	}
	if tr.Peak != res.Peak || tr.LowerBound != res.LowerBound {
		t.Fatalf("trace peak/bound %d/%d != result %d/%d", tr.Peak, tr.LowerBound, res.Peak, res.LowerBound)
	}
	if tr.Intervals != res.NumIntervals || tr.ForcedUnit != res.ForcedUnit {
		t.Fatalf("trace intervals/forced %d/%d != result %d/%d",
			tr.Intervals, tr.ForcedUnit, res.NumIntervals, res.ForcedUnit)
	}
	if tr.Intervals > 0 && tr.BCP.StartsScanned == 0 {
		t.Fatal("BCP sweep ran but scanned no starts")
	}
	if !filled.FullySpecified() {
		t.Fatal("traced fill left Xs behind")
	}
}

// TestTraceIsByteNeutral: attaching a trace must not change the fill's
// output or its reported statistics.
func TestTraceIsByteNeutral(t *testing.T) {
	s := traceSet(t, 48, 80, 7)
	plain, pres, err := FillWith(s, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	traced, tres, err := FillWith(s, Options{Shards: 1, Trace: &Trace{}})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Peak != tres.Peak || pres.NumIntervals != tres.NumIntervals {
		t.Fatalf("traced result diverged: %+v vs %+v", pres, tres)
	}
	for i := range plain.Cubes {
		for j := range plain.Cubes[i] {
			if plain.Cubes[i][j] != traced.Cubes[i][j] {
				t.Fatalf("traced output differs at cube %d pin %d", i, j)
			}
		}
	}
}

// TestPoolStatsAccounting: every arena acquisition is either a hit or
// a miss, and a back-to-back pair of fills drives the reuse path (the
// second fill's trace reports a warm arena on at least one run shape).
func TestPoolStatsAccounting(t *testing.T) {
	s := traceSet(t, 16, 40, 5)
	h0, m0 := PoolStats()
	if _, _, err := FillWith(s, Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := PoolStats()
	if h1+m1 <= h0+m0 {
		t.Fatalf("fill acquired no arena: hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
	if h1 < h0 || m1 < m0 {
		t.Fatalf("pool stats went backwards: hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
}
