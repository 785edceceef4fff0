package exp

import (
	"fmt"
	"math"

	"repro/internal/cube"
	"repro/internal/fill"
	"repro/internal/order"
	"repro/internal/stats"
)

// Fig1Result reproduces the paper's motivating Fig. 1: the X-Stat
// greedy fill versus the optimal fill on a fixed cube matrix where the
// greedy commits colliding toggles.
type Fig1Result struct {
	// Input is the cube matrix (one cube per column in the paper's
	// figure; stored here as the usual ordered set).
	Input *cube.Set
	// XStatFilled and DPFilled are the two completions.
	XStatFilled, DPFilled *cube.Set
	// XStatPeak and DPPeak are their peak toggle counts (3 vs 2 in the
	// paper's example).
	XStatPeak, DPPeak int
}

// Fig1 builds and evaluates the motivating example. It is deterministic
// and self-contained (no suite needed).
func Fig1() (*Fig1Result, error) {
	// 7 pins × 6 vectors; rows (pins across the sequence):
	//   0XX1XX / 1XX0XX / 0XX1XX  - even stretches, greedy commits cycle 1
	//   01XXXX                    - forced toggle at cycle 0
	//   XX01XX                    - forced toggle at cycle 2
	//   0XXXX1 / 1XXXX0           - wide stretches, greedy commits cycle 2
	rows := []string{
		"0XX1XX",
		"1XX0XX",
		"0XX1XX",
		"01XXXX",
		"XX01XX",
		"0XXXX1",
		"1XXXX0",
	}
	s := cube.NewSet(len(rows))
	for j := 0; j < len(rows[0]); j++ {
		c := make(cube.Cube, len(rows))
		for i, row := range rows {
			t, err := cube.ParseTrit(rune(row[j]))
			if err != nil {
				return nil, err
			}
			c[i] = t
		}
		s.Append(c)
	}
	p := cube.Pack(s)
	xs, err := fill.XStat().Fill(p, nil)
	if err != nil {
		return nil, err
	}
	dp, err := fill.DP().Fill(p, nil)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		Input:       s,
		XStatFilled: xs.Set(),
		DPFilled:    dp.Set(),
		XStatPeak:   xs.Peak,
		DPPeak:      dp.Peak,
	}, nil
}

// Fig2aSeries is one circuit's I-Ordering iteration trajectory:
// Algorithm 3's optimal peak per interleave size k (Fig. 2(a)).
type Fig2aSeries struct {
	Ckt    string
	Traces []order.Trace
}

// Fig2a returns the iteration trajectories of every loaded circuit.
func (s *Suite) Fig2a() ([]Fig2aSeries, error) {
	var out []Fig2aSeries
	for _, d := range s.Data {
		_, traces, err := order.InterleavedTrace(d.Cubes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		out = append(out, Fig2aSeries{Ckt: d.Name, Traces: traces})
	}
	return out, nil
}

// Fig2bPoint is one circuit's point in Fig. 2(b): iterations executed
// by Algorithm 3 versus log2 of the pattern count. The paper's
// observation is that iterations grow like O(log n).
type Fig2bPoint struct {
	Ckt        string
	Patterns   int
	Log2N      float64
	Iterations int
}

// Fig2b returns the iteration-count scatter across circuits.
func (s *Suite) Fig2b() ([]Fig2bPoint, error) {
	series, err := s.Fig2a()
	if err != nil {
		return nil, err
	}
	var out []Fig2bPoint
	for i, d := range s.Data {
		out = append(out, Fig2bPoint{
			Ckt:        d.Name,
			Patterns:   d.Cubes.Len(),
			Log2N:      math.Log2(float64(d.Cubes.Len())),
			Iterations: len(series[i].Traces),
		})
	}
	return out, nil
}

// Fig2bFit returns the least-squares slope and intercept of iterations
// against log2(n) — the harness's quantitative check of the O(log n)
// observation — plus the correlation coefficient.
func Fig2bFit(points []Fig2bPoint) (slope, intercept, r float64) {
	if len(points) < 2 {
		return 0, 0, 0
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	var sx, sy float64
	for i, p := range points {
		xs[i], ys[i] = p.Log2N, float64(p.Iterations)
		sx += xs[i]
		sy += ys[i]
	}
	n := float64(len(points))
	mx, my := sx/n, sy/n
	var cov, vx float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
	}
	if vx == 0 {
		return 0, my, 0
	}
	slope = cov / vx
	intercept = my - slope*mx
	r = stats.Correlation(xs, ys)
	return slope, intercept, r
}

// Fig2cResult holds the don't-care stretch statistics of the largest
// circuit under the three orderings (Fig. 2(c)); I-Ordering should show
// markedly longer stretches.
type Fig2cResult struct {
	Ckt string
	// PerOrdering maps ordering name to its stretch summary.
	PerOrdering map[string]stats.StretchSummary
	// OrderingNames preserves presentation order.
	OrderingNames []string
}

// Fig2c computes the stretch statistics on the largest loaded circuit.
func (s *Suite) Fig2c() (*Fig2cResult, error) {
	d := s.Largest()
	if d == nil {
		return nil, fmt.Errorf("exp: empty suite")
	}
	res := &Fig2cResult{
		Ckt:           d.Name,
		PerOrdering:   map[string]stats.StretchSummary{},
		OrderingNames: []string{"Tool", "X-Stat", "I-Order"},
	}
	p := cube.Pack(d.Cubes)
	for _, ord := range order.All() {
		perm, err := ord.OrderPacked(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", d.Name, ord.Name(), err)
		}
		res.PerOrdering[ord.Name()] = stats.Stretches(d.Cubes.Reorder(perm))
	}
	return res, nil
}
