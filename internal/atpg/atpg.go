package atpg

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cube"
	"repro/internal/logicsim"
)

// Options tunes a Generate run.
type Options struct {
	// BacktrackLimit bounds PODEM backtracks per fault (default 120);
	// faults exceeding it are counted as aborted.
	BacktrackLimit int
	// MaxFaults, when positive, samples the collapsed fault list down to
	// this size (seeded by Seed). Large-circuit experiment runs use this
	// to bound effort; cube geometry is unaffected (DESIGN.md).
	MaxFaults int
	// MaxPatterns, when positive, stops generation after this many
	// cubes.
	MaxPatterns int
	// NoCompact disables greedy static compaction. By default each new
	// PODEM cube is merged into the first compatible pattern of the
	// current batch (what commercial ATPG does): pattern counts shrink
	// and the emitted set gets the care-density skew — a few dense
	// patterns, a long X-rich tail — that test-vector ordering
	// techniques exploit.
	NoCompact bool
	// Seed drives fault sampling.
	Seed int64
	// Shard/NumShards restrict the run to one contiguous partition of
	// the collapsed (and possibly sampled) fault list: shard k of K
	// targets faults [k*n/K, (k+1)*n/K). Partitioning happens after
	// collapsing and sampling, so the union of all K shards targets
	// exactly the fault list a single run would. Fault dropping and
	// compaction stay within the shard. NumShards <= 1 means no
	// sharding; a shard whose partition yields no patterns returns an
	// empty set with a nil error (the caller judges the merged set).
	Shard, NumShards int
}

func (o Options) withDefaults() Options {
	if o.BacktrackLimit <= 0 {
		o.BacktrackLimit = 120
	}
	return o
}

// Stats summarizes a Generate run.
type Stats struct {
	// TotalFaults is the collapsed (and possibly sampled) target count.
	TotalFaults int
	// Detected, Untestable and Aborted partition the targets.
	Detected, Untestable, Aborted int
	// Patterns is the emitted cube count.
	Patterns int
	// DroppedBySim counts targets detected by fault simulation of
	// another target's cube rather than by their own PODEM run.
	DroppedBySim int
	// Merged counts PODEM cubes absorbed into existing patterns by
	// static compaction.
	Merged int
}

// Coverage returns detected / (detected + aborted) — untestable faults
// are excluded, as is conventional.
func (s Stats) Coverage() float64 {
	den := s.Detected + s.Aborted
	if den == 0 {
		return 0
	}
	return float64(s.Detected) / float64(den)
}

// Generate runs the full ATPG flow on the circuit: collapse the stem
// fault list (optionally sampling it), then for each remaining
// undetected fault run PODEM and fault-simulate the resulting cube over
// the undetected fault list in 64-pattern batches (fault dropping). The
// returned set's order is the "tool ordering" of Table II.
func Generate(c *circuit.Circuit, opts Options) (*cube.Set, Stats, error) {
	return generateWith(c, opts, newPodem(c))
}

// testGenerator is a PODEM engine for one circuit: generate returns a
// test cube and status for one fault.
type testGenerator interface {
	generate(f Fault, backtrackLimit int) (cube.Cube, int)
}

// generateWith is Generate on a given PODEM engine; the tests run it on
// the reference engine to compare whole runs.
func generateWith(c *circuit.Circuit, opts Options, eng testGenerator) (*cube.Set, Stats, error) {
	opts = opts.withDefaults()
	cc := logicsim.Compile(c)
	faults := Collapse(c, AllFaults(c))
	faults = Sample(faults, opts.MaxFaults, opts.Seed)
	if opts.NumShards > 1 {
		if opts.Shard < 0 || opts.Shard >= opts.NumShards {
			return nil, Stats{}, fmt.Errorf("atpg: shard %d out of range [0,%d)", opts.Shard, opts.NumShards)
		}
		lo := opts.Shard * len(faults) / opts.NumShards
		hi := (opts.Shard + 1) * len(faults) / opts.NumShards
		faults = faults[lo:hi]
	}

	stats := Stats{TotalFaults: len(faults)}
	set := cube.NewSet(c.NumInputs())
	fs := NewFaultSim(cc)

	detected := make([]bool, len(faults))
	var pending []cube.Cube // cubes not yet fault-simulated

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := fs.ApplyBatch(pending); err != nil {
			return err
		}
		for fi := range faults {
			if detected[fi] {
				continue
			}
			if fs.Detects(faults[fi]) != 0 {
				detected[fi] = true
				stats.Detected++
				stats.DroppedBySim++
			}
		}
		pending = pending[:0]
		return nil
	}

	// tryMerge implements greedy static compaction within the pending
	// batch: absorb the cube into the first compatible pattern (the
	// merged pattern detects every fault either constituent detected,
	// since detection under X is monotone in specification).
	tryMerge := func(t cube.Cube) bool {
		if opts.NoCompact {
			return false
		}
		for _, p := range pending {
			if p.Compatible(t) {
				for i, tr := range t {
					if tr != cube.X {
						p[i] = tr
					}
				}
				return true
			}
		}
		return false
	}

	for fi := range faults {
		if detected[fi] {
			continue
		}
		if opts.MaxPatterns > 0 && set.Len() >= opts.MaxPatterns {
			break
		}
		t, status := eng.generate(faults[fi], opts.BacktrackLimit)
		switch status {
		case statusUntestable:
			stats.Untestable++
			continue
		case statusAborted:
			stats.Aborted++
			continue
		}
		detected[fi] = true
		stats.Detected++
		if tryMerge(t) {
			stats.Merged++
		} else {
			set.Append(t)
			pending = append(pending, t)
		}
		if len(pending) == 64 {
			if err := flush(); err != nil {
				return nil, stats, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, stats, err
	}
	stats.Patterns = set.Len()
	if set.Len() == 0 {
		// A sharded run may legitimately draw a partition of all-
		// untestable or all-dropped faults; the caller checks the merged
		// set instead.
		if opts.NumShards > 1 {
			return set, stats, nil
		}
		return nil, stats, fmt.Errorf("atpg: no testable faults in %q", c.Name)
	}
	return set, stats, nil
}

// VerifyDetection fault-simulates every (cube, fault) pair produced by a
// Generate-style run and reports whether the cube detects the fault; it
// is the independent cross-check used by tests and examples.
func VerifyDetection(c *circuit.Circuit, t cube.Cube, f Fault) (bool, error) {
	fs := NewFaultSim(logicsim.Compile(c))
	return fs.DetectedBy(t, f)
}
