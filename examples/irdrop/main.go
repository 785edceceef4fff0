// IR-drop study: the physical effect motivating the paper. Compares
// the spatial current concentration (per-tile peak current, hotspot
// ratio) of different fills on one circuit, plus the LOS launch-pair
// machinery.
//
//	go run ./examples/irdrop [circuit]
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro"
	"repro/internal/fill"
	"repro/internal/order"
	"repro/internal/power"
	"repro/internal/scan"
)

func main() {
	name := "b05"
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
		log.Fatalf("unknown circuit %q", name)
	}
	c, err := repro.GenerateCircuit(profile)
	if err != nil {
		log.Fatal(err)
	}
	cubes, _, err := repro.GenerateTests(c, repro.ATPGOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	model := repro.ExtractPower(c)
	fmt.Printf("%s: %d patterns x %d pins; per-tile peak current on a 4x4 grid\n\n",
		name, cubes.Len(), cubes.Width)

	const tiles = 4
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "flow\tpeak toggles\tworst tile µA\tmean tile µA\thotspot ratio")
	show := func(label string, filled *repro.CubeSet) {
		mp, err := model.IRDrop(c, filled, tiles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2f\n",
			label, filled.PeakToggles(), mp.WorstUA, mp.MeanUA, mp.HotspotRatio())
	}

	packed := repro.PackCubes(cubes)
	for _, fl := range []repro.Filler{fill.Zero(), fill.Random(3), fill.Backward()} {
		filled, err := fl.Fill(packed, nil)
		if err != nil {
			log.Fatal(err)
		}
		show("tool + "+fl.Name(), filled.Set())
	}
	perm, err := order.Interleaved().OrderPacked(packed)
	if err != nil {
		log.Fatal(err)
	}
	dp, err := fill.DP().Fill(packed, perm)
	if err != nil {
		log.Fatal(err)
	}
	show("I-Order + DP-fill", dp.Set())
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// LOS mechanics: launch pairs for a few transition faults.
	plan, err := repro.NewScanPlan(c, 4)
	if err != nil {
		log.Fatal(err)
	}
	var faults []scan.TransitionFault
	for _, g := range c.Topo() {
		if len(faults) >= 12 {
			break
		}
		faults = append(faults, scan.TransitionFault{Net: g, SlowToRise: true})
	}
	pairs, stats, err := scan.BuildLOSPairs(c, plan, faults, scan.PairOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLOS launch pairs: built %d, abandoned %d; launch toggles per pair:",
		stats.Built, stats.Abandoned)
	for _, p := range pairs {
		fmt.Printf(" %d", p.LaunchToggles())
	}
	fmt.Println()
	_ = power.Default45nm() // the model constants in use
}
