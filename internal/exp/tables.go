package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/engine"
	"repro/internal/fill"
	"repro/internal/order"
	"repro/internal/power"
	"repro/internal/stats"
)

// FillNames is the column order of Tables II–IV.
var FillNames = []string{"MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill"}

// TableIRow is one row of Table I: cube statistics per circuit.
type TableIRow struct {
	Ckt        string
	Inputs     int // measured |PIs|+|FFs| (scaled profile)
	Gates      int // measured logic gates
	Patterns   int
	XPct       float64 // measured
	PaperXPct  float64 // Table I reference
	PaperIn    int     // Table I inputs
	PaperGates int     // Table I gates
	Coverage   float64
}

// TableI reports the measured cube statistics next to the paper's.
func (s *Suite) TableI() []TableIRow {
	var out []TableIRow
	for _, d := range s.Data {
		out = append(out, TableIRow{
			Ckt:        d.Name,
			Inputs:     d.Circuit.NumInputs(),
			Gates:      d.Circuit.NumLogicGates(),
			Patterns:   d.Cubes.Len(),
			XPct:       d.Cubes.XPercent(),
			PaperXPct:  d.Paper.XPct,
			PaperIn:    d.Paper.Inputs(),
			PaperGates: d.Paper.Gates,
			Coverage:   100 * d.ATPG.Coverage(),
		})
	}
	return out
}

// PeakRow is one row of Tables II/III/IV: peak input toggles per fill
// under one ordering.
type PeakRow struct {
	Ckt string
	// Peaks is indexed like FillNames.
	Peaks []int
	// Durations is the engine-reported wall-clock time of each fill job,
	// indexed like FillNames.
	Durations []time.Duration
}

// Best returns the minimum peak and its column index.
func (r PeakRow) Best() (int, int) {
	bi, bv := 0, r.Peaks[0]
	for i, v := range r.Peaks {
		if v < bv {
			bi, bv = i, v
		}
	}
	return bv, bi
}

// PeakTable computes one of Tables II–IV: reorder every circuit's cubes
// with the orderer, then run the fillers × circuits grid through the
// batch engine (Config.Parallelism workers), recording per-job wall
// time. Results are identical to a serial evaluation; only the
// schedule differs.
func (s *Suite) PeakTable(ord order.Orderer) ([]PeakRow, error) {
	// DP-fill pinned to one shard: the engine already saturates the CPU
	// across jobs, so per-fill sharding would only oversubscribe it.
	fillers := fill.All(s.Config.Seed, core.Options{Shards: 1})
	n := len(s.Data)

	// Phase 1: each circuit is packed and ordered exactly once,
	// concurrently (orderings like I-Order dominate cost; running them
	// per fill job would repeat the work len(fillers) times).
	packed := make([]*cube.Packed, n)
	perms := make([][]int, n)
	errs := make([]error, n)
	sem := make(chan struct{}, s.Config.withDefaults().Parallelism)
	var wg sync.WaitGroup
	for i, d := range s.Data {
		wg.Add(1)
		go func(i int, d *CircuitData) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			packed[i] = cube.Pack(d.Cubes)
			perm, err := ord.OrderPacked(packed[i])
			if err != nil {
				errs[i] = fmt.Errorf("%s: %s ordering: %w", d.Name, ord.Name(), err)
				return
			}
			perms[i] = perm
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: the fillers × circuits grid as one engine batch, every
	// job of a circuit filling its one snapshot in the order phase 1
	// found.
	jobs := make([]engine.Job, 0, n*len(fillers))
	for i, d := range s.Data {
		applied := order.Func{OrderName: ord.Name(), F: func(*cube.Packed) ([]int, error) {
			return perms[i], nil
		}}
		for _, fl := range fillers {
			jobs = append(jobs, engine.Job{
				Name:    d.Name + "/" + fl.Name(),
				Packed:  packed[i],
				Orderer: applied,
				Filler:  fl,
			})
		}
	}
	results := engine.New(s.Config.withDefaults().Parallelism).Run(context.Background(), jobs)

	out := make([]PeakRow, n)
	for i, d := range s.Data {
		row := PeakRow{
			Ckt:       d.Name,
			Peaks:     make([]int, len(fillers)),
			Durations: make([]time.Duration, len(fillers)),
		}
		for f := range fillers {
			r := results[i*len(fillers)+f]
			if r.Err != nil {
				return nil, r.Err
			}
			row.Peaks[f] = r.Peak
			row.Durations[f] = r.Duration
		}
		out[i] = row
	}
	return out, nil
}

// TableII is PeakTable under the tool ordering.
func (s *Suite) TableII() ([]PeakRow, error) { return s.PeakTable(order.Tool()) }

// TableIII is PeakTable under the X-Stat ordering.
func (s *Suite) TableIII() ([]PeakRow, error) { return s.PeakTable(order.XStat()) }

// TableIV is PeakTable under the proposed I-Ordering.
func (s *Suite) TableIV() ([]PeakRow, error) { return s.PeakTable(order.Interleaved()) }

// TechniqueNames is the column order of Tables V and VI: the four prior
// techniques and the proposed one.
var TechniqueNames = []string{"Tool", "ISA", "Adj-fill", "X-Stat", "Proposed"}

// techniqueSets materializes the five technique (ordering + fill)
// combinations for one circuit; see DESIGN.md for the prior-art
// substitutions.
func (s *Suite) techniqueSets(d *CircuitData) (map[string]*cube.Set, error) {
	out := make(map[string]*cube.Set, len(TechniqueNames))

	// Every technique orders and fills one snapshot of the circuit.
	p := cube.Pack(d.Cubes)
	// Tool: tool ordering, best of the six fills (the paper's column 1
	// is the per-circuit minimum across fills under tool order).
	var toolBest *fill.Result
	for _, fl := range fill.All(s.Config.Seed, core.Options{}) {
		filled, err := fl.Fill(p, nil)
		if err != nil {
			return nil, err
		}
		if toolBest == nil || filled.Peak < toolBest.Peak {
			toolBest = filled
		}
	}
	// The power models simulate trits, so each technique's winner is
	// unpacked once.
	out["Tool"] = toolBest.Set()

	apply := func(ord order.Orderer, fl fill.Filler) (*cube.Set, error) {
		perm, err := ord.OrderPacked(p)
		if err != nil {
			return nil, err
		}
		filled, err := fl.Fill(p, perm)
		if err != nil {
			return nil, err
		}
		return filled.Set(), nil
	}
	var err error
	// ISA [20] orders fully specified vectors for low transition counts;
	// pairing its ordering with the inter-pattern greedy B-fill is the
	// faithful cube-era analogue (DESIGN.md substitutions).
	if out["ISA"], err = apply(order.ISA(s.Config.Seed), fill.Backward()); err != nil {
		return nil, fmt.Errorf("%s: ISA: %w", d.Name, err)
	}
	if out["Adj-fill"], err = apply(order.XStat(), fill.Adj()); err != nil {
		return nil, fmt.Errorf("%s: Adj-fill: %w", d.Name, err)
	}
	if out["X-Stat"], err = apply(order.XStat(), fill.XStat()); err != nil {
		return nil, fmt.Errorf("%s: X-Stat: %w", d.Name, err)
	}
	if out["Proposed"], err = apply(order.Interleaved(), fill.DP()); err != nil {
		return nil, fmt.Errorf("%s: proposed: %w", d.Name, err)
	}
	return out, nil
}

// CompareRow is one row of Table V or VI: a metric per technique plus
// the proposed method's improvement over each prior technique.
type CompareRow struct {
	Ckt string
	// Values is indexed like TechniqueNames.
	Values []float64
	// ImprovementPct[i] is the improvement of Proposed over technique i
	// (the last entry is always 0).
	ImprovementPct []float64
}

func compareRow(ckt string, vals []float64) CompareRow {
	row := CompareRow{Ckt: ckt, Values: vals, ImprovementPct: make([]float64, len(vals))}
	prop := vals[len(vals)-1]
	for i, v := range vals {
		row.ImprovementPct[i] = stats.Improvement(v, prop)
	}
	row.ImprovementPct[len(vals)-1] = 0
	return row
}

// TableV compares peak input toggles of the proposed I-Ordering+DP-fill
// against the prior techniques.
func (s *Suite) TableV() ([]CompareRow, error) {
	var out []CompareRow
	for _, d := range s.Data {
		sets, err := s.techniqueSets(d)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(TechniqueNames))
		for i, name := range TechniqueNames {
			vals[i] = float64(sets[name].PeakToggles())
		}
		out = append(out, compareRow(d.Name, vals))
	}
	return out, nil
}

// TableVI compares peak circuit power (µW) of the proposed technique
// against the prior techniques, using the extracted-capacitance WSA
// model.
func (s *Suite) TableVI() ([]CompareRow, error) {
	tech := power.Default45nm()
	var out []CompareRow
	for _, d := range s.Data {
		sets, err := s.techniqueSets(d)
		if err != nil {
			return nil, err
		}
		model := power.Extract(d.Circuit, tech)
		vals := make([]float64, len(TechniqueNames))
		for i, name := range TechniqueNames {
			p, err := model.PeakCapturePowerUW(sets[name])
			if err != nil {
				return nil, fmt.Errorf("%s: %s power: %w", d.Name, name, err)
			}
			vals[i] = p
		}
		out = append(out, compareRow(d.Name, vals))
	}
	return out, nil
}
