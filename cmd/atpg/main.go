// Command atpg generates stuck-at test cubes for a .bench netlist using
// the PODEM engine with fault-simulation dropping, and writes them as a
// cube file (tool order). The emitted cubes are X-dominated, ready for
// the dpfill tool. A fault that an earlier pattern already detects is
// dropped without running PODEM on it.
//
// The summary on standard error counts each collapsed fault once, as
// detected, untestable or aborted (PODEM gave up and no pattern
// detects it). Its coverage is detected / (detected + aborted).
//
// Usage:
//
//	atpg -bench b14.bench -o b14.cubes [-max-faults 4000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/circuit"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	bench := fs.String("bench", "", "input .bench netlist (required)")
	out := fs.String("o", "", "output cube file (default stdout)")
	maxFaults := fs.Int("max-faults", 0, "sample the collapsed fault list down to this size (0 = all)")
	maxPatterns := fs.Int("max-patterns", 0, "stop after this many patterns (0 = no cap)")
	backtracks := fs.Int("backtracks", 0, "PODEM backtrack limit per fault (0 = default)")
	seed := fs.Int64("seed", 1, "fault sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("need -bench")
	}
	f, err := os.Open(*bench)
	if err != nil {
		return err
	}
	c, err := circuit.ParseBench(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "parsed %s: %d inputs (%d PIs + %d FFs), %d gates\n",
		*bench, c.NumInputs(), len(c.PIs), len(c.DFFs), c.NumLogicGates())

	set, stats, err := atpg.Generate(c, atpg.Options{
		MaxFaults:      *maxFaults,
		MaxPatterns:    *maxPatterns,
		BacktrackLimit: *backtracks,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"atpg: %d faults -> %d patterns, %.1f%% coverage (%d untestable, %d aborted), %.1f%% X\n",
		stats.TotalFaults, stats.Patterns, 100*stats.Coverage(),
		stats.Untestable, stats.Aborted, set.XPercent())

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	return set.Write(w)
}
