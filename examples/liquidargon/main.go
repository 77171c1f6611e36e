// Liquidargon is a small production-style study built on the mdrun
// framework layer (the "full-scale framework" direction of the paper's
// future plans): equilibrate a Lennard-Jones liquid with a Berendsen
// thermostat, switch to NVE production, and report the observables a
// simulation user actually wants — mean temperature, pressure, mean-
// square displacement, and the radial distribution function.
//
//	go run ./examples/liquidargon
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/lattice"
	"repro/internal/mdrun"
)

func main() {
	cfg := mdrun.Config{
		Atoms:       500,
		Density:     0.8442,
		Temperature: 0.728,
		Lattice:     lattice.FCC,
		Seed:        2007,
		Cutoff:      2.5,
		Dt:          0.004,
		Shifted:     true,
		Method:      mdrun.Pairlist, // O(N): the production choice
		Thermostat:  mdrun.Berendsen,
		SampleRDF:   true,
		SampleEvery: 5,
	}
	r, err := mdrun.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Equilibration (Berendsen, 400 steps) ==")
	eq, err := r.Run(400)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean T %.4f (target %.4f)   E %.2f -> %.2f (thermostat removes the lattice's excess)\n",
		eq.MeanTemperature, cfg.Temperature, eq.InitialEnergy, eq.FinalEnergy)

	// Production: a runner whose observables start at the equilibrated
	// state, thermostat still on (weak coupling, standard practice).
	fmt.Println("\n== Production (600 steps, sampling every 5) ==")
	pr, err := mdrun.NewFromSystem(r.System(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	prod, err := pr.Run(600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean T      %.4f\n", prod.MeanTemperature)
	fmt.Printf("  pressure    %.4f (reduced units; LJ liquid at this state point is near ~0-1)\n", prod.Pressure)
	fmt.Printf("  MSD         %.4f σ² over production\n", prod.MSD)

	fmt.Println("\n== Radial distribution function g(r) ==")
	// A text sketch: one row per bin group.
	const rows = 16
	per := len(prod.RDF) / rows
	var maxG float64
	for _, g := range prod.RDF {
		if g > maxG {
			maxG = g
		}
	}
	for r0 := 0; r0 < rows; r0++ {
		var g, c float64
		for k := r0 * per; k < (r0+1)*per && k < len(prod.RDF); k++ {
			g += prod.RDF[k]
			c = prod.RDFCenters[k]
		}
		g /= float64(per)
		bar := int(g / maxG * 40)
		fmt.Printf("  r=%4.2f |%s %.2f\n", c, strings.Repeat("#", bar), g)
	}
	fmt.Println("\nthe first peak near r≈1.1σ and the depleted core are the liquid's signature;")
	fmt.Println("the same structure holds whichever force method computes it (direct or pairlist).")
}
