// Clusterdesign: the procurement-side study — bills of materials, power
// budget, price/performance, failure expectations, and the Moore's-law
// comparison between Loki (1996) and the Space Simulator (2002).
package main

import (
	"fmt"

	"spacesim/internal/cluster"
	"spacesim/internal/hpl"
	"spacesim/internal/reliability"
)

func main() {
	ss := cluster.SpaceSimulatorBOM()
	loki := cluster.LokiBOM()
	fmt.Print(ss.Render())
	fmt.Println()
	fmt.Print(loki.Render())

	p := cluster.SpaceSimulatorPower()
	fmt.Printf("\npower: %.1f kW of a %.0f kW budget (max %d nodes)\n",
		p.TotalWatts()/1e3, p.LimitWatts/1e3, p.MaxNodes())

	apr := hpl.ModelGflops(hpl.April2003())
	fmt.Printf("\nLinpack (April 2003 config): %.1f Gflop/s -> $%.3f per Mflop/s\n",
		apr, ss.Total()/(apr*1e3))
	fmt.Println("the first TOP500 machine under $1/Mflop/s")

	fmt.Println("\nexpected component failures (294 nodes, 9 months):")
	_, op := reliability.ExpectedCounts(294, 9)
	for c, v := range op {
		fmt.Printf("  %-18s %.1f\n", c, v)
	}
	sim := reliability.Simulate(7)
	fmt.Printf("SMART would have predicted %.0f%% of this draw's disk failures\n",
		100*sim.SMARTPredictedFraction())

	fmt.Println("\nMoore's-law report (1996 -> 2002, 4 doublings = 16x):")
	comp := cluster.Components(loki, ss, 6)
	fmt.Printf("  disk $/GB:  %.0f -> %.2f  (%.1fx beyond Moore)\n",
		comp.DiskUSDPerGBOld, comp.DiskUSDPerGBNew, comp.DiskVsMoore)
	fmt.Printf("  RAM  $/MB:  %.2f -> %.2f  (%.1fx beyond Moore)\n",
		comp.RAMUSDPerMBOld, comp.RAMUSDPerMBNew, comp.RAMVsMoore)
	for _, r := range cluster.NPBComparisons() {
		fmt.Printf("  NPB %s: %.1fx faster, %.2fx Moore in price/performance\n",
			r.Benchmark, r.Improvement, r.PricePerfVsMoore)
	}
	tm := cluster.TreecodeMoore()
	fmt.Printf("  treecode: %.0fx vs %.0fx predicted — Moore's law, almost exactly\n",
		tm.Improvement, tm.MoorePrediction)
}
