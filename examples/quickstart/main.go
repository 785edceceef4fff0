// Quickstart: fill a small test cube sequence with DP-fill and compare
// against naive fills.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Eight test cubes over six input pins, as an ATPG might emit them:
	// mostly don't-cares (X), a few care bits per cube.
	cubes, err := repro.ParseCubes(
		"0X1XX0",
		"XXX1XX",
		"1XXXX0",
		"XX0XXX",
		"X1XXX1",
		"0XXX0X",
		"XXX0XX",
		"1X1XXX",
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d cubes x %d pins, %.0f%% don't-care\n\n",
		cubes.Len(), cubes.Width, cubes.XPercent())

	// DP-fill: provably minimal peak toggles for this ordering.
	filled, res, err := repro.DPFill(cubes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("DP-filled cubes:")
	for i, c := range filled.Cubes {
		fmt.Printf("  T%d  %s -> %s\n", i+1, cubes.Cubes[i], c)
	}
	fmt.Printf("\npeak toggles: %d (lower bound %d — optimal by construction)\n",
		res.Peak, res.LowerBound)
	fmt.Printf("per-cycle toggle profile: %v\n\n", res.Profile)

	// Compare every fill the paper's tables use.
	fmt.Println("fill comparison (same ordering):")
	packed := repro.PackCubes(cubes)
	for _, fl := range repro.Fills(1) {
		out, err := fl.Fill(packed, nil)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if out.Peak == res.Peak {
			marker = "  <- matches optimum"
		}
		fmt.Printf("  %-8s peak %d%s\n", fl.Name(), out.Peak, marker)
	}

	// The paper's full proposal also reorders the cubes first.
	_, _, peak, err := repro.Proposed().Run(cubes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nI-Ordering + DP-fill peak: %d\n", peak)
}
