// Package pipeline runs the paper's full experimental loop as one
// staged workload: netlist in (inline .bench text or a netgen spec),
// ATPG with static compaction, DP-fill (or any registered
// filler/orderer) on the extracted cubes, and per-pattern power
// evaluation — shift toggles, capture power under LOS/LOC, IR-drop —
// out as a typed report with per-stage timings and a fault-coverage
// curve.
//
// The package is serving-layer agnostic: internal/server exposes it as
// POST /v1/pipeline (sync and async), internal/cluster shards its ATPG
// stage across a fleet, and cmd/dpfill drives it from the CLI. To make
// a sharded run mergeable, ATPG accepts a fault-partition index
// (Request.Stage == StageATPG + ShardIndex): shard k of K targets the
// k-th contiguous slice of the collapsed fault list, and the merged,
// order-preserved union of the K shard cube sets feeds one Finish call
// — the identical code path a single-process run takes, which is what
// makes coordinator results byte-identical to local ones.
package pipeline

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/netgen"
	"repro/internal/scan"
)

// StageATPG marks a request that runs only one ATPG fault shard and
// returns its cubes, for coordinator fan-out.
const StageATPG = "atpg"

// MaxShards bounds the ATPG fault partitioning.
const MaxShards = 64

// MaxTiles bounds the IR-drop grid side: the power stage keeps two
// tiles×tiles grids and sweeps them once per capture cycle.
const MaxTiles = 256

// ErrBadRequest wraps every validation failure of a Request — bad
// netlist text, unknown algorithm names, out-of-range shard indices —
// so serving layers can answer 400 instead of 422.
var ErrBadRequest = errors.New("pipeline: bad request")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Request is one pipeline invocation. Exactly one of Netlist and Spec
// names the circuit.
type Request struct {
	// Name labels the run in reports and logs; defaults to the resolved
	// circuit name.
	Name string `json:"name,omitempty"`
	// Netlist is inline .bench netlist text (the ISCAS-89/ITC-99
	// exchange format internal/circuit speaks).
	Netlist string `json:"netlist,omitempty"`
	// Spec is a netgen circuit spec: a catalog name ("b04"), a scaled
	// catalog name ("b04@0.25"), or a custom profile
	// ("pis=8,ffs=24,gates=200[,seed=7][,name=x]").
	Spec string `json:"spec,omitempty"`
	// Stage, when StageATPG, runs only fault shard ShardIndex and
	// returns its cubes — the coordinator fan-out unit. Empty runs the
	// whole pipeline.
	Stage string `json:"stage,omitempty"`
	// ShardIndex selects the fault shard when Stage == StageATPG.
	ShardIndex int `json:"shard_index,omitempty"`
	// ATPG tunes pattern generation.
	ATPG ATPGConfig `json:"atpg,omitzero"`
	// Orderer and Filler name the fill-stage algorithms (tool and dp by
	// default), with the same spellings as /v1/fill.
	Orderer string `json:"orderer,omitempty"`
	Filler  string `json:"filler,omitempty"`
	// Seed fixes the randomized algorithms (R-fill, ISA, fault
	// sampling). Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Power tunes the evaluation stage.
	Power PowerConfig `json:"power,omitzero"`
	// IncludeCubes carries the ATPG cubes and the filled set in the
	// report (shard-stage responses always carry their cubes).
	IncludeCubes bool `json:"include_cubes,omitempty"`
	// TimeoutMillis bounds the run's wall-clock time; serving layers
	// clamp it against their configured ceiling.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// ATPGConfig tunes the generation stage; the zero value uses the
// atpg package defaults with a single fault shard.
type ATPGConfig struct {
	// BacktrackLimit bounds PODEM backtracks per fault (default 120).
	BacktrackLimit int `json:"backtrack_limit,omitempty"`
	// MaxFaults samples the collapsed fault list down to this size.
	MaxFaults int `json:"max_faults,omitempty"`
	// MaxPatterns stops generation after this many cubes per shard.
	MaxPatterns int `json:"max_patterns,omitempty"`
	// NoCompact disables greedy static compaction.
	NoCompact bool `json:"no_compact,omitempty"`
	// Shards fault-partitions the run into this many independent ATPG
	// shards (1..MaxShards; default 1). A coordinator fans the shards
	// across its fleet; a local run executes them in order. Either way
	// the merged cube set is identical.
	Shards int `json:"shards,omitempty"`
}

// PowerConfig tunes the evaluation stage.
type PowerConfig struct {
	// Scheme is the at-speed launch style: "los" (default) or "loc".
	// Only LOS is state-preserving, so capture-toggle accounting (the
	// paper's objective) is reported for LOS alone; the simulated
	// capture power and IR-drop are reported for both.
	Scheme string `json:"scheme,omitempty"`
	// Chains is the scan chain count (default 1; clamped to the FF
	// count).
	Chains int `json:"chains,omitempty"`
	// Tiles is the IR-drop grid side length (default 4, at most
	// MaxTiles).
	Tiles int `json:"tiles,omitempty"`
}

// Shards returns the resolved ATPG shard count (>= 1).
func (r Request) Shards() int {
	if r.ATPG.Shards < 1 {
		return 1
	}
	return r.ATPG.Shards
}

// Steps returns the progress-step total of a run: the netlist stage,
// one step per ATPG shard, the fill stage and the power stage. Serving
// layers report async progress against this total.
func (r Request) Steps() int {
	if r.Stage == StageATPG {
		return 2 // netlist + one shard
	}
	return r.Shards() + 3
}

// Validate checks the request's structure: circuit source, stage,
// shard bounds and power knobs. Algorithm names are resolved (and
// rejected) by Run/Finish, which also wrap those failures in
// ErrBadRequest.
func (r Request) Validate() error {
	switch {
	case r.Netlist != "" && r.Spec != "":
		return badf("request carries both netlist and spec; send one")
	case r.Netlist == "" && r.Spec == "":
		return badf("request carries no circuit: set netlist or spec")
	}
	if r.Stage != "" && r.Stage != StageATPG {
		return badf("unknown stage %q (want empty or %q)", r.Stage, StageATPG)
	}
	if r.ATPG.Shards < 0 || r.ATPG.Shards > MaxShards {
		return badf("atpg shards %d outside [0,%d]", r.ATPG.Shards, MaxShards)
	}
	if r.Stage == StageATPG {
		if r.ShardIndex < 0 || r.ShardIndex >= r.Shards() {
			return badf("shard index %d outside [0,%d)", r.ShardIndex, r.Shards())
		}
	} else if r.ShardIndex != 0 {
		return badf("shard_index is only valid with stage %q", StageATPG)
	}
	if _, err := ParseScheme(r.Power.Scheme); err != nil {
		return err
	}
	if r.Power.Chains < 0 {
		return badf("power chains %d < 0", r.Power.Chains)
	}
	if r.Power.Tiles < 0 {
		return badf("power tiles %d < 0", r.Power.Tiles)
	}
	if r.Power.Tiles > MaxTiles {
		return badf("power tiles %d exceed the limit %d", r.Power.Tiles, MaxTiles)
	}
	return nil
}

// ParseScheme resolves a scheme name; empty means LOS.
func ParseScheme(name string) (scan.Scheme, error) {
	switch strings.ToLower(name) {
	case "", "los":
		return scan.LOS, nil
	case "loc":
		return scan.LOC, nil
	default:
		return 0, badf("unknown scan scheme %q (want los or loc)", name)
	}
}

// ParseNetlist parses inline .bench netlist text into a circuit and
// requires it to be testable in principle (at least one scan input).
// It is the fuzzed ingress of the pipeline endpoint.
func ParseNetlist(text string) (*circuit.Circuit, error) {
	c, err := circuit.ParseBench(strings.NewReader(text))
	if err != nil {
		return nil, badf("parsing netlist: %v", err)
	}
	if c.NumInputs() < 1 {
		return nil, badf("netlist %q has no primary inputs or flip-flops", c.Name)
	}
	return c, nil
}

// ResolveCircuit resolves the request's circuit source: inline netlist
// text or a generated netgen spec. With maxGates positive, a circuit
// of more gates is refused. A spec is refused before synthesis, since
// its profile gives the size, so a one-line request cannot make the
// server build a million-gate netlist only to reject it.
func ResolveCircuit(req Request, maxGates int) (*circuit.Circuit, error) {
	checkSize := func(name string, gates int) error {
		if maxGates > 0 && gates > maxGates {
			return badf("circuit %q has %d gates, exceeding the limit %d", name, gates, maxGates)
		}
		return nil
	}
	if req.Netlist != "" {
		c, err := ParseNetlist(req.Netlist)
		if err == nil {
			err = checkSize(c.Name, len(c.Gates))
		}
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	p, err := netgen.ParseSpec(req.Spec)
	if err != nil {
		return nil, badf("%v", err)
	}
	if err := checkSize(p.Name, p.Size()); err != nil {
		return nil, err
	}
	c, err := netgen.Generate(p)
	if err != nil {
		return nil, badf("%v", err)
	}
	return c, nil
}
