package order

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// atpgSet is a pins×vectors set shaped like compacted ATPG output: each
// cube's care fraction is exponentially distributed around the mean
// 1-xFrac (capped at 0.95), so a few care-dense cubes lead a long
// X-rich tail. Uniform X density would make every X-Stat distance look
// alike and hide how orderings behave on real test sets.
func atpgSet(r *rand.Rand, pins, vectors int, xFrac float64) *cube.Set {
	s := cube.NewSet(pins)
	mean := 1 - xFrac
	for j := 0; j < vectors; j++ {
		care := math.Min(mean*r.ExpFloat64(), 0.95)
		c := make(cube.Cube, pins)
		for i := range c {
			switch u := r.Float64(); {
			case u >= care:
				c[i] = cube.X
			case u < care/2:
				c[i] = cube.Zero
			default:
				c[i] = cube.One
			}
		}
		s.Append(c)
	}
	return s
}

// BenchmarkXStatATPG and BenchmarkIOrderingATPG time one ordering call
// at 640 pins × 1250 vectors, 82% X: the middle of the served fill-cold
// request shapes.
func BenchmarkXStatATPG(b *testing.B) {
	s := atpgSet(rand.New(rand.NewSource(16)), 640, 1250, 0.82)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := XStat().Order(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOrderingATPG(b *testing.B) {
	s := atpgSet(rand.New(rand.NewSource(16)), 640, 1250, 0.82)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := InterleavedTrace(s); err != nil {
			b.Fatal(err)
		}
	}
}
