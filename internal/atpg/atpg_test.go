package atpg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/cube"
	"repro/internal/logicsim"
	"repro/internal/netgen"
)

const tinyNetlist = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = AND(a, b)
n2 = OR(n1, c)
y = NOT(n2)
`

const seqNetlist = `
INPUT(a)
INPUT(b)
OUTPUT(y)
q0 = DFF(n2)
n1 = NAND(a, q0)
n2 = XOR(b, n1)
y = NOR(n1, n2)
`

func parse(t testing.TB, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllFaultsCount(t *testing.T) {
	c := parse(t, tinyNetlist)
	faults := AllFaults(c)
	// 6 nets (a,b,c,n1,n2,y) x 2 polarities.
	if len(faults) != 12 {
		t.Fatalf("%d faults, want 12", len(faults))
	}
}

func TestCollapseBufNotChains(t *testing.T) {
	src := `
INPUT(a)
b1 = BUFF(a)
n1 = NOT(b1)
OUTPUT(n1)
`
	c := parse(t, src)
	faults := Collapse(c, AllFaults(c))
	// b1's faults fold onto a; n1's fold onto a with inverted polarity.
	// Only a/sa0 and a/sa1 remain.
	if len(faults) != 2 {
		t.Fatalf("collapsed = %v", faults)
	}
	aID, _ := c.GateByName("a")
	for _, f := range faults {
		if f.Net != aID {
			t.Fatalf("fault %v not folded onto input", f)
		}
	}
}

func TestFaultString(t *testing.T) {
	if (Fault{Net: 3, Stuck: cube.One}).String() != "3/sa1" {
		t.Fatal("Fault.String")
	}
	if (Fault{Net: 0, Stuck: cube.Zero}).String() != "0/sa0" {
		t.Fatal("Fault.String sa0")
	}
}

func TestSample(t *testing.T) {
	faults := make([]Fault, 100)
	for i := range faults {
		faults[i] = Fault{Net: i, Stuck: cube.Zero}
	}
	s := Sample(faults, 10, 1)
	if len(s) != 10 {
		t.Fatalf("sampled %d", len(s))
	}
	s2 := Sample(faults, 10, 1)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	if got := Sample(faults, 0, 1); len(got) != 100 {
		t.Fatal("max<=0 must be identity")
	}
	if got := Sample(faults, 200, 1); len(got) != 100 {
		t.Fatal("max>len must be identity")
	}
}

func TestFaultSimKnownDetections(t *testing.T) {
	c := parse(t, tinyNetlist)
	fs := NewFaultSim(logicsim.Compile(c))
	yID, _ := c.GateByName("y")
	n1ID, _ := c.GateByName("n1")

	// Pattern 110: n1=1, n2=1, y=0.
	// y/sa1 flips the observed output -> detected.
	det, err := fs.DetectedBy(cube.MustParse("110"), Fault{Net: yID, Stuck: cube.One})
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("y/sa1 not detected by 110")
	}
	// n1/sa0 under 110: good n1=1, faulty 0, then n2 = OR(0,0)=0, y=1 vs
	// good y=0 -> detected.
	det, err = fs.DetectedBy(cube.MustParse("110"), Fault{Net: n1ID, Stuck: cube.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("n1/sa0 not detected by 110")
	}
	// n1/sa0 under 100: good n1=0 -> fault not excited.
	det, err = fs.DetectedBy(cube.MustParse("100"), Fault{Net: n1ID, Stuck: cube.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Error("n1/sa0 claimed detected by non-exciting pattern")
	}
}

func TestFaultSimXConservative(t *testing.T) {
	// With c = X, the fault effect of n1/sa0 may be masked (c=1 blocks
	// the OR); detection must NOT be claimed.
	c := parse(t, tinyNetlist)
	fs := NewFaultSim(logicsim.Compile(c))
	n1ID, _ := c.GateByName("n1")
	det, err := fs.DetectedBy(cube.MustParse("11X"), Fault{Net: n1ID, Stuck: cube.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Error("X-masked fault claimed detected")
	}
	// With c = 0 the path is clear.
	det, err = fs.DetectedBy(cube.MustParse("110"), Fault{Net: n1ID, Stuck: cube.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("clear path not detected")
	}
}

func TestPodemTinyCircuit(t *testing.T) {
	c := parse(t, tinyNetlist)
	eng := newPodem(c)
	fs := NewFaultSim(logicsim.Compile(c))
	for _, f := range Collapse(c, AllFaults(c)) {
		tc, status := eng.generate(f, 100)
		if status != statusDetected {
			t.Fatalf("fault %v not detected (status %d)", f, status)
		}
		det, err := fs.DetectedBy(tc, f)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Fatalf("PODEM cube %v does not detect %v per fault sim", tc, f)
		}
	}
}

func TestPodemSequentialFullScan(t *testing.T) {
	c := parse(t, seqNetlist)
	eng := newPodem(c)
	fs := NewFaultSim(logicsim.Compile(c))
	for _, f := range Collapse(c, AllFaults(c)) {
		tc, status := eng.generate(f, 100)
		if status == statusAborted {
			t.Fatalf("fault %v aborted on a 4-gate circuit", f)
		}
		if status == statusUntestable {
			continue
		}
		det, err := fs.DetectedBy(tc, f)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Fatalf("cube %v does not detect %v", tc, f)
		}
	}
}

func TestPodemUntestableFault(t *testing.T) {
	// Redundant logic: y = OR(a, NOT(a)) is constant 1; the OR output
	// s-a-1 is untestable.
	src := `
INPUT(a)
n = NOT(a)
y = OR(a, n)
OUTPUT(y)
`
	c := parse(t, src)
	eng := newPodem(c)
	yID, _ := c.GateByName("y")
	if _, status := eng.generate(Fault{Net: yID, Stuck: cube.One}, 100); status != statusUntestable {
		t.Fatalf("constant-1 net s-a-1 not proven untestable (status %d)", status)
	}
	// And s-a-0 on the same net is trivially testable.
	if _, status := eng.generate(Fault{Net: yID, Stuck: cube.Zero}, 100); status != statusDetected {
		t.Fatalf("s-a-0 on constant-1 net should be detected (status %d)", status)
	}
}

func TestGenerateTiny(t *testing.T) {
	c := parse(t, tinyNetlist)
	set, stats, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Width != 3 {
		t.Fatalf("width = %d", set.Width)
	}
	if stats.Detected == 0 || stats.Coverage() < 1.0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Patterns != set.Len() {
		t.Fatalf("pattern count mismatch: %d vs %d", stats.Patterns, set.Len())
	}
}

func TestGenerateProfileCircuit(t *testing.T) {
	p, _ := netgen.ProfileByName("b03")
	c, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	set, stats, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Width != p.Inputs() {
		t.Fatalf("cube width %d, want %d", set.Width, p.Inputs())
	}
	if stats.Coverage() < 0.85 {
		t.Fatalf("coverage %.2f too low; stats %+v", stats.Coverage(), stats)
	}
	if set.XPercent() < 10 {
		t.Fatalf("X%% = %.1f; cubes are suspiciously dense", set.XPercent())
	}
	t.Logf("b03: %d patterns, %.1f%% X, coverage %.1f%%",
		set.Len(), set.XPercent(), 100*stats.Coverage())
}

func TestGenerateMaxPatterns(t *testing.T) {
	p, _ := netgen.ProfileByName("b03")
	c, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := Generate(c, Options{MaxPatterns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() > 5 {
		t.Fatalf("MaxPatterns ignored: %d", set.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := netgen.ProfileByName("b01")
	c, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := Generate(c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Generate(c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatal("ATPG not deterministic")
	}
}

// TestPropertyPodemCubesVerify: every PODEM-generated cube detects its
// target fault according to the independent dual-rail fault simulator,
// on randomly generated circuits.
func TestPropertyPodemCubesVerify(t *testing.T) {
	f := func(seed int64) bool {
		p := netgen.Profile{Name: "prop", PIs: 3, FFs: 4, Gates: 40, Seed: seed%1000 + 1}
		c, err := netgen.Generate(p)
		if err != nil {
			return false
		}
		eng := newPodem(c)
		fs := NewFaultSim(logicsim.Compile(c))
		faults := Collapse(c, AllFaults(c))
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 10 && len(faults) > 0; trial++ {
			fl := faults[r.Intn(len(faults))]
			tc, status := eng.generate(fl, 200)
			if status != statusDetected {
				continue
			}
			det, err := fs.DetectedBy(tc, fl)
			if err != nil || !det {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFaultSimMatchesScalar: dual-rail cone-resim detection
// agrees with brute-force full-circuit two-valued simulation on fully
// specified patterns.
func TestPropertyFaultSimMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		p := netgen.Profile{Name: "prop", PIs: 4, FFs: 3, Gates: 30, Seed: seed%997 + 1}
		c, err := netgen.Generate(p)
		if err != nil {
			return false
		}
		cc := logicsim.Compile(c)
		fs := NewFaultSim(cc)
		sim := logicsim.NewSimulator(cc)
		r := rand.New(rand.NewSource(seed))
		width := c.NumInputs()
		pat := make(cube.Cube, width)
		for i := range pat {
			if r.Intn(2) == 0 {
				pat[i] = cube.Zero
			} else {
				pat[i] = cube.One
			}
		}
		faults := Collapse(c, AllFaults(c))
		for trial := 0; trial < 8 && len(faults) > 0; trial++ {
			fl := faults[r.Intn(len(faults))]
			got, err := fs.DetectedBy(pat, fl)
			if err != nil {
				return false
			}
			want, err := scalarFaultDetect(c, sim, pat, fl)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// scalarFaultDetect is an intentionally naive oracle: simulate the good
// circuit, then simulate a faulty copy gate-by-gate with the stuck net
// forced, and compare observables.
func scalarFaultDetect(c *circuit.Circuit, sim *logicsim.Simulator, pat cube.Cube, f Fault) (bool, error) {
	if err := sim.Apply(pat); err != nil {
		return false, err
	}
	good := make([]cube.Trit, c.NumGates())
	for id := range good {
		good[id] = sim.Value(id)
	}
	// Faulty values: recompute every net in topo order with the forced
	// stuck value.
	faulty := make([]cube.Trit, c.NumGates())
	copy(faulty, good)
	faulty[f.Net] = f.Stuck
	// Sources keep their values (except the fault net). Recompute all
	// combinational gates in topo order against the faulty array.
	for _, g := range c.Topo() {
		if g == f.Net {
			continue
		}
		faulty[g] = eval3Region(c.Gates[g].Type, c.Gates[g].Fanin, faulty)
	}
	for _, ob := range c.ScanOutputs() {
		gv, fv := good[ob], faulty[ob]
		if gv != cube.X && fv != cube.X && gv != fv {
			return true, nil
		}
	}
	return false, nil
}

func benchmarkGenerate(b *testing.B, profile string) {
	c := specCircuit(b, profile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkATPGGenerateB04(b *testing.B) { benchmarkGenerate(b, "b04") }

// BenchmarkATPGGenerateB09 is one of the circuits the pipeline
// workload scales.
func BenchmarkATPGGenerateB09(b *testing.B) { benchmarkGenerate(b, "b09") }

// checkStatsPartition runs c whole and in shards fault shards and
// requires each run's Detected, Untestable and Aborted to partition its
// TotalFaults, the shards' TotalFaults to sum to the whole run's, and
// the whole run's Detected to equal what CoverageCurve finds in the
// emitted set.
func checkStatsPartition(t testing.TB, c *circuit.Circuit, shards int) {
	t.Helper()
	partition := func(what string, st Stats) {
		t.Helper()
		if sum := st.Detected + st.Untestable + st.Aborted; sum != st.TotalFaults {
			t.Fatalf("%s %s: detected+untestable+aborted = %d, total faults %d (%+v)",
				c.Name, what, sum, st.TotalFaults, st)
		}
	}
	set, whole, err := Generate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	partition("whole run", whole)
	curve, err := CoverageCurve(c, set)
	if err != nil {
		t.Fatal(err)
	}
	if got := curve[len(curve)-1].Detected; got != whole.Detected {
		t.Fatalf("%s: coverage curve detects %d faults, Stats.Detected %d", c.Name, got, whole.Detected)
	}
	total := 0
	for k := 0; k < shards; k++ {
		_, st, err := Generate(c, Options{Shard: k, NumShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		partition(fmt.Sprintf("shard %d/%d", k, shards), st)
		total += st.TotalFaults
	}
	if total != whole.TotalFaults {
		t.Fatalf("%s: %d shards target %d faults, the whole run %d", c.Name, shards, total, whole.TotalFaults)
	}
}

// TestStatsPartitionFaults: every targeted fault is counted exactly
// once, as detected, untestable or aborted, whole and sharded, on the
// ITC'99 profiles. A fault PODEM aborts that a later pattern detects is
// detected, not both.
func TestStatsPartitionFaults(t *testing.T) {
	for _, name := range []string{"b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "b12" {
				t.Skip("b12 ATPG takes seconds")
			}
			t.Parallel()
			checkStatsPartition(t, specCircuit(t, name), 3)
		})
	}
}

// FuzzGenerateAccounting extends TestStatsPartitionFaults to arbitrary
// small netgen circuits (at most 200 gates) and shard counts.
func FuzzGenerateAccounting(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(40), uint8(3))
	f.Add(int64(7), uint8(1), uint8(0), uint8(1), uint8(2))
	f.Add(int64(42), uint8(8), uint8(15), uint8(199), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, pis, ffs, gates, shards uint8) {
		p := netgen.Profile{
			Name:  "fuzz",
			PIs:   1 + int(pis)%8,
			FFs:   int(ffs) % 24,
			Gates: 1 + int(gates)%200,
			Seed:  seed,
		}
		c, err := netgen.Generate(p)
		if err != nil {
			t.Fatalf("generate %+v: %v", p, err)
		}
		if _, st, err := Generate(c, Options{}); err != nil && st.Detected == 0 {
			t.Skip("no testable faults") // nothing to count
		}
		checkStatsPartition(t, c, 1+int(shards)%6)
	})
}
