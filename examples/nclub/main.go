// Distance-based relaxations: the paper's circuit toolkit adapts beyond
// k-plexes to n-cliques, n-clans and n-clubs ("Adaptability", Section
// III). This example separates the three models on a star-with-rim graph
// and runs the quantum n-club search of internal/club, whose oracle
// replaces degree counting with a bounded-hop reachability cascade.
//
//	go run ./examples/nclub
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/club"
	"repro/internal/graph"
)

func main() {
	// A hub with five spokes plus one rim edge. The five leaves are all
	// within distance 2 of each other THROUGH the hub, so leaf sets are
	// 2-cliques; but the subgraph induced by leaves alone is nearly
	// edgeless, so they are not 2-clubs.
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, // hub 0
		{1, 2}, // one rim edge
	})
	fmt.Printf("graph: %v (hub 1, leaves 2..6, one rim edge 2-3)\n\n", g)

	leaves := []int{1, 2, 3, 4, 5}
	fmt.Printf("leaves %v: 2-clique %v, 2-club %v, 2-clan %v\n",
		oneBased(leaves),
		club.IsNClique(g, leaves, 2), club.IsNClub(g, leaves, 2), club.IsNClan(g, leaves, 2))
	all := []int{0, 1, 2, 3, 4, 5}
	fmt.Printf("whole graph:      2-clique %v, 2-club %v, 2-clan %v\n\n",
		club.IsNClique(g, all, 2), club.IsNClub(g, all, 2), club.IsNClan(g, all, 2))

	// Exact maximum 2-club by enumeration, then the quantum search.
	exact, err := club.MaxNClub(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximum 2-club (enumeration): size %d, set %v\n", exact.Size, oneBased(exact.Set))

	qres, err := club.QMaxClub(context.Background(), g, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximum 2-club (Grover):      size %d, set %v (%d oracle calls)\n",
		qres.Size, oneBased(qres.Set), qres.Nodes)

	fmt.Println("\nThe hub plus all leaves is a 2-club (everything within two hops")
	fmt.Println("inside the set); the leaves alone are a 2-clique but no club —")
	fmt.Println("the separation that makes the club model the strictest of the three.")
}

func oneBased(set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = v + 1
	}
	return out
}
