// Progressive search: qMKP's binary search emits a feasible k-plex long
// before it proves the maximum — the paper guarantees the first feasible
// answer has at least half the optimal size and arrives within the first
// O(1/log n) of the runtime. This example streams the probe-by-probe
// progress on a 10-vertex instance.
//
//	go run ./examples/progressive
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
)

func main() {
	d, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	fmt.Printf("dataset %s: %v, k = 2\n\n", d.Name, g)

	res, err := core.SolveMKP(context.Background(), g, core.Spec{Algo: core.AlgoMKP, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("binary-search probe stream:")
	for i, p := range res.Progress {
		status := "none of that size — search lower"
		if p.Found {
			status = fmt.Sprintf("FOUND size %d: %v", p.Size, p.Set)
		}
		fmt.Printf("  probe %d: T=%-2d → %-40s (cum. QPU %8v)\n", i+1, p.T, status, p.CumQPUTime)
	}

	fmt.Printf("\nmaximum 2-plex: size %d, set %v\n", res.Size, res.Set)
	ff := res.FirstFeasible
	fmt.Printf("first feasible: size %d after %v — %.0f%% of the total %v\n",
		ff.Size, ff.CumQPUTime,
		100*float64(ff.CumQPUTime)/float64(res.QPUTime), res.QPUTime)
	fmt.Printf("guarantee check: first size %d ≥ ⌈optimal/2⌉ = %d\n",
		ff.Size, (res.Size+1)/2)
}
