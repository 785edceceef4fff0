package atpg

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/netgen"
)

// referenceSpecs are the circuits the production PODEM engine is held to
// the reference on: the ITC'99 profiles b01–b11 (the two largest
// scaled to half) and three seeded custom netlists.
var referenceSpecs = []string{
	"b01", "b02", "b03", "b04@0.5", "b05@0.5", "b06", "b07", "b08", "b09", "b10", "b11@0.5",
	"pis=8,ffs=24,gates=200,seed=7",
	"pis=5,ffs=12,gates=400,seed=3",
	"pis=16,ffs=8,gates=300,seed=11",
}

func specCircuit(t testing.TB, spec string) *circuit.Circuit {
	t.Helper()
	p, err := netgen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMatchesReference runs every collapsed fault of c through the
// production engine and the reference engine at each backtrack limit
// and requires the same status and cube, then requires whole Generate
// runs on the two engines to return the same set, Stats and error.
func checkMatchesReference(t testing.TB, c *circuit.Circuit, limits ...int) {
	t.Helper()
	faults := Collapse(c, AllFaults(c))
	eng, ref := newPodem(c), newRefPodem(c)
	for _, limit := range limits {
		for _, f := range faults {
			got, gotStatus := eng.generate(f, limit)
			want, wantStatus := ref.generate(f, limit)
			if gotStatus != wantStatus || !got.Equal(want) {
				t.Fatalf("%s fault %v limit %d: got %v status %d, reference %v status %d",
					c.Name, f, limit, got, gotStatus, want, wantStatus)
			}
		}
		opts := Options{BacktrackLimit: limit}
		gotSet, gotStats, gotErr := generateWith(c, opts, newPodem(c))
		wantSet, wantStats, wantErr := generateWith(c, opts, newRefPodem(c))
		if (gotErr == nil) != (wantErr == nil) || gotStats != wantStats {
			t.Fatalf("%s limit %d: Generate stats %+v err %v, reference %+v err %v",
				c.Name, limit, gotStats, gotErr, wantStats, wantErr)
		}
		if gotErr == nil && !gotSet.Equal(wantSet) {
			t.Fatalf("%s limit %d: Generate sets differ from the reference", c.Name, limit)
		}
	}
}

// TestPodemMatchesReference pins the dual-rail PODEM kernel to the
// scalar reference engine: same status and cube for every collapsed
// fault, same Generate output, at a tight and the default backtrack
// limit.
func TestPodemMatchesReference(t *testing.T) {
	for _, spec := range referenceSpecs {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			checkMatchesReference(t, specCircuit(t, spec), 5, 120)
		})
	}
}

// FuzzPodemMatchesReference extends TestPodemMatchesReference to
// arbitrary small netgen circuits (at most 120 gates, so one input runs
// in milliseconds).
func FuzzPodemMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(40))
	f.Add(int64(7), uint8(1), uint8(0), uint8(1))
	f.Add(int64(42), uint8(8), uint8(15), uint8(119))
	f.Fuzz(func(t *testing.T, seed int64, pis, ffs, gates uint8) {
		p := netgen.Profile{
			Name:  "fuzz",
			PIs:   1 + int(pis)%8,
			FFs:   int(ffs) % 16,
			Gates: 1 + int(gates)%120,
			Seed:  seed,
		}
		c, err := netgen.Generate(p)
		if err != nil {
			t.Fatalf("generate %+v: %v", p, err)
		}
		checkMatchesReference(t, c, 5, 120)
	})
}

// TestPodemGenerateAllocatesOnlyCube: once its scratch buffers have
// grown, the engine allocates nothing per fault except the cube it
// returns for a detected one.
func TestPodemGenerateAllocatesOnlyCube(t *testing.T) {
	c := specCircuit(t, "b03")
	eng := newPodem(c)
	faults := Collapse(c, AllFaults(c))
	status := make([]int, len(faults))
	for i, f := range faults {
		_, status[i] = eng.generate(f, 120)
	}
	seen := map[int]bool{}
	for i, f := range faults {
		want := 0.0
		if status[i] == statusDetected {
			want = 1
		}
		if got := testing.AllocsPerRun(3, func() { eng.generate(f, 120) }); got != want {
			t.Fatalf("fault %v (status %d): %v allocations per generate, want %v", f, status[i], got, want)
		}
		seen[status[i]] = true
	}
	if !seen[statusDetected] || (!seen[statusAborted] && !seen[statusUntestable]) {
		t.Fatalf("statuses covered %v: want a detected and a failed fault", seen)
	}
}
