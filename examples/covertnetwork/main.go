// Covert-network analysis: one of the paper's cited applications (Krebs,
// "Mapping networks of terrorist cells", 2002) is finding tightly knit
// cells in sparse, deliberately obscured communication graphs.
//
// Covert cells avoid complete subgraphs — members route around a few
// broken links on purpose — so clique search misses them while k-plex
// search recovers the full cell. This example encodes a small covert-style
// network (a 6-member cell wired as a 2-plex, plus peripheral contacts)
// and contrasts k = 1 with k = 2, solving with both the classical BS
// solver and the gate-based qMKP.
//
//	go run ./examples/covertnetwork
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// The cell: members 0..5 fully wired except the two "compartmentalised"
// pairs (0,3) and (1,4) that never communicate directly. Each member
// therefore misses one in-cell contact: a 2-plex of size 6, but the
// largest clique inside it has only 4 members.
// Periphery: couriers 6..9 with sparse links into the cell.
var edges = [][2]int{
	{0, 1}, {0, 2}, {0, 4}, {0, 5},
	{1, 2}, {1, 3}, {1, 5},
	{2, 3}, {2, 4}, {2, 5},
	{3, 4}, {3, 5},
	{4, 5},
	// periphery
	{6, 0}, {6, 1}, {7, 2}, {7, 6}, {8, 3}, {8, 9}, {9, 5},
}

func main() {
	g := graph.FromEdges(10, edges)
	fmt.Printf("covert network: %v\n\n", g)

	for k := 1; k <= 2; k++ {
		res, err := kplex.BS(g, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d (classical BS):   cell candidate %v (size %d)\n", k, res.Set, res.Size)
	}

	// The same detection on the quantum pipeline. Real agencies would not
	// have a QPU either — but the algorithm is the point.
	res, err := core.SolveMKP(context.Background(), g, core.Spec{Algo: core.AlgoMKP, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=2 (qMKP, simulated): cell candidate %v (size %d), %d Grover oracle calls\n",
		res.Set, res.Size, res.OracleCalls)
	if res.FirstFeasible != nil {
		fmt.Printf("   progressive: first lead of size %d after %v modelled QPU time (%v total)\n",
			res.FirstFeasible.Size, res.FirstFeasible.CumQPUTime, res.QPUTime)
	}

	fmt.Println("\nThe 2-plex recovers the full 6-member cell; the clique model")
	fmt.Println("stops at 4 because compartmentalised pairs hide two links.")
}
