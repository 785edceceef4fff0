// LOS power flow: the full pipeline the paper evaluates, end to end on
// one synthetic ITC'99 circuit — netlist generation, ATPG, the proposed
// I-Ordering + DP-fill, scan-plan accounting and the extracted-
// capacitance power model, compared against a naive baseline.
//
//	go run ./examples/lospower [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/fill"
	"repro/internal/order"
)

func main() {
	name := "b04"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	var profile repro.Profile
	found := false
	for _, p := range repro.ITC99Profiles() {
		if p.Name == name {
			profile, found = p, true
		}
	}
	if !found {
		log.Fatalf("unknown circuit %q (want b01..b22)", name)
	}

	// 1. Synthesize the profile-matched netlist.
	c, err := repro.GenerateCircuit(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d PIs + %d FFs, %d logic gates, depth %d\n",
		name, len(c.PIs), len(c.DFFs), c.NumLogicGates(), c.Depth())

	// 2. ATPG: X-dominated stuck-at test cubes.
	cubes, stats, err := repro.GenerateTests(c, repro.ATPGOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d patterns, %.1f%% fault coverage, %.1f%% X bits\n",
		cubes.Len(), 100*stats.Coverage(), cubes.XPercent())

	// 3. Scan plan: 4 balanced chains, LOS with state preservation.
	plan, err := repro.NewScanPlan(c, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan: %d chains, %d shift cycles/pattern, %d tester cycles total\n\n",
		len(plan.Chains), plan.ShiftCycles, plan.TestCycles(cubes.Len()))

	// 4. Power model from the synthetic placement.
	model := repro.ExtractPower(c)

	// 5. Compare the naive flow against the paper's proposal.
	report := func(label string, ordered *repro.CubeSet, filled *repro.CubeSet) {
		rep, err := model.CapturePower(filled)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s peak input toggles %4d | peak capture power %8.2f µW (cycle %d) | avg %7.2f µW\n",
			label, filled.PeakToggles(), rep.PeakUW, rep.PeakCycle, rep.AvgUW)
		_ = ordered
	}

	packed := repro.PackCubes(cubes)
	zeroFilled, err := fill.Zero().Fill(packed, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("tool order + 0-fill:", cubes, zeroFilled.Set())

	bFilled, err := fill.Backward().Fill(packed, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("tool order + B-fill:", cubes, bFilled.Set())

	perm, err := order.Interleaved().OrderPacked(packed)
	if err != nil {
		log.Fatal(err)
	}
	reordered := cubes.Reorder(perm)
	dpFilled, res, err := repro.DPFill(reordered)
	if err != nil {
		log.Fatal(err)
	}
	report("I-Order + DP-fill:", reordered, dpFilled)
	fmt.Printf("\nDP-fill proof obligation: achieved peak %d == BCP lower bound %d\n",
		res.Peak, res.LowerBound)

	fmt.Println("\nThe proposed flow minimizes the launch-capture (peak) power, the")
	fmt.Println("quantity responsible for IR-drop-induced false delay failures.")
}
