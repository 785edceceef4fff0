package netgen

import (
	"strings"
	"testing"

	"repro/internal/circuit"
)

func TestITC99ProfilesComplete(t *testing.T) {
	profiles := ITC99()
	if len(profiles) != 21 {
		t.Fatalf("%d profiles, want 21", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.Inputs() < 2 || p.Gates < 1 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	// Spot-check Table I numbers.
	b19, ok := ProfileByName("b19")
	if !ok || b19.Inputs() != 6666 || b19.Gates != 146500 {
		t.Fatalf("b19 profile = %+v", b19)
	}
	b01, _ := ProfileByName("b01")
	if b01.Inputs() != 5 || b01.Gates != 57 {
		t.Fatalf("b01 profile = %+v", b01)
	}
}

func TestProfileByNameMissing(t *testing.T) {
	if _, ok := ProfileByName("b99"); ok {
		t.Fatal("b99 found")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("b03")
	c1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var s1, s2 strings.Builder
	if err := circuit.WriteBench(&s1, c1); err != nil {
		t.Fatal(err)
	}
	if err := circuit.WriteBench(&s2, c2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenerateSeedChangesCircuit(t *testing.T) {
	p, _ := ProfileByName("b03")
	c1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 12345
	c2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var s1, s2 strings.Builder
	if err := circuit.WriteBench(&s1, c1); err != nil {
		t.Fatal(err)
	}
	if err := circuit.WriteBench(&s2, c2); err != nil {
		t.Fatal(err)
	}
	if s1.String() == s2.String() {
		t.Fatal("different seeds produced identical netlists")
	}
}

func TestGenerateMatchesProfile(t *testing.T) {
	for _, name := range []string{"b01", "b02", "b03", "b08", "b10"} {
		p, _ := ProfileByName(name)
		c, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.PIs) != p.PIs || len(c.DFFs) != p.FFs {
			t.Errorf("%s: PIs=%d FFs=%d, want %d/%d",
				name, len(c.PIs), len(c.DFFs), p.PIs, p.FFs)
		}
		if c.NumInputs() != p.Inputs() {
			t.Errorf("%s: inputs=%d want %d", name, c.NumInputs(), p.Inputs())
		}
		// Gate budget: p.Gates logic gates plus one Buf per FF (the D
		// drivers).
		want := p.Gates + p.FFs
		if c.NumLogicGates() != want {
			t.Errorf("%s: logic gates=%d want %d", name, c.NumLogicGates(), want)
		}
		if len(c.Gates) != p.Size() {
			t.Errorf("%s: %d gates, Size() says %d", name, len(c.Gates), p.Size())
		}
		if len(c.POs) == 0 {
			t.Errorf("%s: no primary outputs", name)
		}
	}
}

func TestGenerateNoDanglingLogic(t *testing.T) {
	p, _ := ProfileByName("b04")
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	isPO := map[int]bool{}
	for _, id := range c.POs {
		isPO[id] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			continue
		}
		if len(g.Fanout) == 0 && !isPO[g.ID] {
			t.Fatalf("gate %s dangles (no fanout, not a PO)", g.Name)
		}
	}
}

func TestGenerateRoundTripsThroughBench(t *testing.T) {
	p, _ := ProfileByName("b06")
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := circuit.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := circuit.ParseBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumLogicGates() != c.NumLogicGates() || c2.NumInputs() != c.NumInputs() {
		t.Fatal("round trip changed shape")
	}
}

func TestScaled(t *testing.T) {
	p, _ := ProfileByName("b19")
	s := p.Scaled(0.1)
	if s.Gates != 14650 || s.PIs != p.PIs/10 {
		t.Fatalf("scaled = %+v", s)
	}
	if q := p.Scaled(2.0); q.Gates != p.Gates {
		t.Fatal("factor >= 1 must be identity")
	}
	tiny := Profile{Name: "t", PIs: 1, FFs: 1, Gates: 2}.Scaled(0.001)
	if tiny.PIs < 1 || tiny.Gates < 1 {
		t.Fatalf("scaled below 1: %+v", tiny)
	}
}

func TestGenerateRejectsDegenerate(t *testing.T) {
	if _, err := Generate(Profile{Name: "x", PIs: 0, FFs: 1, Gates: 5}); err == nil {
		t.Fatal("PIs=0 accepted")
	}
	if _, err := Generate(Profile{Name: "x", PIs: 1, FFs: 0, Gates: 0}); err == nil {
		t.Fatal("Gates=0 accepted")
	}
}

func TestGenerateMediumProfileFast(t *testing.T) {
	if testing.Short() {
		t.Skip("medium profile generation in -short mode")
	}
	p, _ := ProfileByName("b14")
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() < 3 {
		t.Fatalf("depth = %d; generator produced implausibly flat logic", c.Depth())
	}
}

func BenchmarkNetgenGenerateB14(b *testing.B) {
	p, _ := ProfileByName("b14")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
