package fill

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cube"
)

func randomSet(r *rand.Rand, width, n int, xProb float64) *cube.Set {
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

// fillSet runs fl on s and returns the unpacked filled set. It also
// pins the count-once contract: the statistics the filler returned
// must equal a fresh ToggleStats recount of its planes.
func fillSet(fl Filler, s *cube.Set) (*cube.Set, error) {
	res, err := fl.Fill(cube.Pack(s), nil)
	if err != nil {
		return nil, err
	}
	out := res.Set()
	peak, total, profile := out.ToggleStats()
	if res.Peak != peak || res.Total != total || !slices.Equal(res.Profile, profile) {
		return nil, fmt.Errorf("%s counted peak %d total %d profile %v; recount gives %d %d %v",
			fl.Name(), res.Peak, res.Total, res.Profile, peak, total, profile)
	}
	return out, nil
}

func TestConstantFills(t *testing.T) {
	s := cube.MustParseSet("0X1", "XXX")
	z, err := fillSet(Zero(), s)
	if err != nil {
		t.Fatal(err)
	}
	if z.Cubes[0].String() != "001" || z.Cubes[1].String() != "000" {
		t.Fatalf("0-fill = %v", z.Cubes)
	}
	o, err := fillSet(One(), s)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cubes[0].String() != "011" || o.Cubes[1].String() != "111" {
		t.Fatalf("1-fill = %v", o.Cubes)
	}
}

func TestConstantRejectsX(t *testing.T) {
	if _, err := fillSet(Constant(cube.X), cube.MustParseSet("X")); err == nil {
		t.Error("Constant(X) accepted")
	}
}

func TestRandomFillDeterministic(t *testing.T) {
	s := cube.MustParseSet("XXXXXXXXXX", "XXXXXXXXXX")
	a, err := fillSet(Random(42), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fillSet(Random(42), s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different fills")
	}
	c, err := fillSet(Random(43), s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical fills (width 20 makes this astronomically unlikely)")
	}
}

func TestMTFillVector(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0XX1X", "00011"},
		{"XX1X0", "11110"}, // X after the 1 copies it; leading Xs copy first care
		{"XXXX", "0000"},
		{"1XXX", "1111"},
		{"X0X1", "0001"},
	}
	for _, c := range cases {
		s := cube.MustParseSet(c.in)
		got, err := fillSet(MT(), s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cubes[0].String() != c.want {
			t.Errorf("MT(%s) = %s, want %s", c.in, got.Cubes[0], c.want)
		}
	}
}

func TestAdjFillVector(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0XX1", "0011"}, // ties go left, nearest wins
		{"0X1", "001"},   // single middle X: tie -> left value
		{"1XXXX0", "111000"},
		{"XXXX", "0000"},
		{"XX1", "111"},
		{"1XX", "111"},
		{"0XXX1X0XX", "000111000"}, // pos5 ties between 1 and 0 -> left
	}
	for _, c := range cases {
		s := cube.MustParseSet(c.in)
		got, err := fillSet(Adj(), s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cubes[0].String() != c.want {
			t.Errorf("Adj(%s) = %s, want %s", c.in, got.Cubes[0], c.want)
		}
	}
}

func TestBackwardFillCopiesPrevious(t *testing.T) {
	s := cube.MustParseSet("01", "XX", "XX")
	got, err := fillSet(Backward(), s)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 3; j++ {
		if got.Cubes[j].String() != "01" {
			t.Fatalf("B-fill cube %d = %v", j, got.Cubes[j])
		}
	}
	if got.PeakToggles() != 0 {
		t.Fatalf("peak = %d, want 0", got.PeakToggles())
	}
}

func TestBackwardFillEmptySet(t *testing.T) {
	got, err := fillSet(Backward(), cube.NewSet(4))
	if err != nil || got.Len() != 0 {
		t.Fatalf("B-fill empty: %v %v", got, err)
	}
}

func TestXStatPhase1EvenStretchCommitsMiddle(t *testing.T) {
	// Row 0XX1 across 4 vectors: phase 1 fills to 0011 (toggle at cycle 1).
	s := cube.MustParseSet("0", "X", "X", "1")
	got, err := fillSet(XStat(), s)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "0", "1", "1"}
	for j := range want {
		if got.Cubes[j].String() != want[j] {
			t.Fatalf("X-Stat = %v, want %v", got.Cubes, want)
		}
	}
}

func TestXStatPhase2BalancesToggles(t *testing.T) {
	// Two pins. Pin 0 forces a toggle at cycle 0 (0->1 between vectors
	// 0,1). Pin 1 has stretch 0X1 whose surviving X can place its toggle
	// at cycle 0 or 1; the statistical phase must choose cycle 1.
	s := cube.MustParseSet("00", "1X", "11")
	got, err := fillSet(XStat(), s)
	if err != nil {
		t.Fatal(err)
	}
	prof := got.ToggleProfile()
	if prof[0] != 1 || prof[1] != 1 {
		t.Fatalf("profile = %v, want [1 1] (got cubes %v)", prof, got.Cubes)
	}
}

func TestXStatSingleCube(t *testing.T) {
	got, err := fillSet(XStat(), cube.MustParseSet("0XX1X"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.FullySpecified() {
		t.Fatalf("X-Stat left Xs in single cube: %v", got)
	}
}

func TestFillerNames(t *testing.T) {
	want := []string{"MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill"}
	all := All(1, core.Options{})
	if len(all) != len(want) {
		t.Fatalf("All returned %d fillers", len(all))
	}
	for i, f := range all {
		if f.Name() != want[i] {
			t.Errorf("filler %d = %q, want %q", i, f.Name(), want[i])
		}
	}
	if XStat().Name() != "X-Stat" || Adj().Name() != "Adj-fill" {
		t.Error("auxiliary filler names wrong")
	}
}

// TestByName: every CLI/API spelling resolves to its filler, the empty
// name means DP-fill, only the DP spellings are IsDP, and the options
// reach DP-fill (its trace sink is written by the fill).
func TestByName(t *testing.T) {
	cases := map[string]string{
		"": "DP-fill", "dp": "DP-fill", "DP": "DP-fill", "dpfill": "DP-fill", "dp-fill": "DP-fill",
		"mt": "MT-fill", "r": "R-fill", "random": "R-fill", "0": "0-fill", "zero": "0-fill",
		"1": "1-fill", "one": "1-fill", "b": "B-fill", "backward": "B-fill",
		"adj": "Adj-fill", "xstat": "X-Stat", "X-Stat": "X-Stat",
	}
	for name, want := range cases {
		fl, err := ByName(name, 1, core.Options{})
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if fl.Name() != want {
			t.Errorf("ByName(%q) = %q, want %q", name, fl.Name(), want)
		}
		if IsDP(fl) != (want == "DP-fill") {
			t.Errorf("IsDP(ByName(%q)) = %v", name, IsDP(fl))
		}
	}
	if _, err := ByName("bogus", 1, core.Options{}); err == nil {
		t.Error("ByName accepted an unknown filler")
	}
	tr := &core.Trace{}
	fl, err := ByName("dp", 1, core.Options{Shards: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fillSet(fl, cube.MustParseSet("0X1X", "XX0X", "1XX1")); err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 4 || tr.Cols != 3 || tr.TotalNS <= 0 {
		t.Fatalf("DP-fill ignored its options: trace %+v", tr)
	}
}

// TestPropertyAllFillersProduceCompletions: every filler returns a fully
// specified set agreeing with the input's care bits.
func TestPropertyAllFillersProduceCompletions(t *testing.T) {
	fillers := append(All(5, core.Options{}), XStat(), Adj())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(10), 1+r.Intn(10), 0.6)
		for _, fl := range fillers {
			out, err := fillSet(fl, s)
			if err != nil || !s.Covers(out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFillersDoNotMutateInput guards the documented contract.
func TestPropertyFillersDoNotMutateInput(t *testing.T) {
	fillers := append(All(5, core.Options{}), XStat(), Adj())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(8), 1+r.Intn(8), 0.6)
		p := cube.Pack(s)
		perm := r.Perm(s.Len())
		for _, fl := range fillers {
			if _, err := fl.Fill(p, perm); err != nil {
				return false
			}
			if !p.Unpack(nil).Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDPNeverWorse: DP-fill's peak is a lower bound on every
// other filler's peak — the paper's per-ordering optimality claim.
func TestPropertyDPNeverWorse(t *testing.T) {
	others := append(Baselines(9), XStat(), Adj())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(12), 2+r.Intn(12), 0.65)
		dp, err := fillSet(DP(), s)
		if err != nil {
			return false
		}
		for _, fl := range others {
			out, err := fillSet(fl, s)
			if err != nil {
				return false
			}
			if dp.PeakToggles() > out.PeakToggles() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestFig1Suboptimality reproduces the paper's Fig. 1 phenomenon: a cube
// matrix where X-Stat's greedy phase 1 commits toggles to colliding
// cycles while DP-fill spreads them, achieving a strictly lower peak.
func TestFig1Suboptimality(t *testing.T) {
	s := fig1Set()
	xs, err := fillSet(XStat(), s)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := fillSet(DP(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Covers(xs) || !s.Covers(dp) {
		t.Fatal("fills are not completions")
	}
	if xs.PeakToggles() <= dp.PeakToggles() {
		t.Fatalf("expected X-Stat (%d) strictly worse than DP-fill (%d)",
			xs.PeakToggles(), dp.PeakToggles())
	}
	if dp.PeakToggles() != 2 || xs.PeakToggles() != 3 {
		t.Fatalf("Fig.1 shape: X-Stat=%d (want 3) DP=%d (want 2)",
			xs.PeakToggles(), dp.PeakToggles())
	}
}

// fig1Set builds a matrix exhibiting the Fig. 1 gap: several even-length
// unequal stretches whose phase-1 middle commitment collides on one
// cycle, plus forced toggles that the optimal fill can dodge.
//
// X-Stat phase 1 commits rows 0-2 to cycle 1 and rows 5-6 to cycle 2;
// with the forced toggles at cycles 0 and 2 its histogram is
// [1,3,3,0,0] -> peak 3, and no X survives to phase 2. DP-fill spreads
// the same intervals to peak 2 = the BCP lower bound.
func fig1Set() *cube.Set {
	// 7 pins (rows) x 6 vectors. Rows as strings for readability; the
	// set is the transpose.
	rows := []string{
		"0XX1XX", // toggle window cycles 0..2 ; phase1 commits cycle 1
		"1XX0XX", // same window, commits cycle 1
		"0XX1XX", // same window, commits cycle 1
		"01XXXX", // forced toggle at cycle 0
		"XX01XX", // forced toggle at cycle 2
		"0XXXX1", // wide window 0..4, phase1 commits cycle 2
		"1XXXX0", // wide window 0..4, phase1 commits cycle 2
	}
	s := cube.NewSet(len(rows))
	n := len(rows[0])
	for j := 0; j < n; j++ {
		c := make(cube.Cube, len(rows))
		for i, row := range rows {
			tr, err := cube.ParseTrit(rune(row[j]))
			if err != nil {
				panic(err)
			}
			c[i] = tr
		}
		s.Append(c)
	}
	return s
}
