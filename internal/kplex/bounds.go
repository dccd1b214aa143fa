package kplex

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/reduce"
)

// Bounds for the maximum k-plex size. The paper notes that "upper bounding
// techniques can also be integrated into the binary search process of qMKP
// to further enhance its efficiency"; these are the bounds the core
// package uses for that integration.

// CoreUpperBound returns an upper bound on the maximum k-plex size: every
// vertex of a k-plex of size q has degree ≥ q-k inside it, so the k-plex
// lies in the (q-k)-core; hence q ≤ max_v core(v) + k, with the core
// numbers from reduce.DegeneracyOrder.
func CoreUpperBound(g *graph.Graph, k int) int {
	maxCore := 0
	_, core := reduce.DegeneracyOrder(g)
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	ub := maxCore + k
	if ub > g.N() {
		ub = g.N()
	}
	return ub
}

// DegreeUpperBound is the cheaper degeneracy-free bound: a k-plex of size
// q needs at least q vertices of degree ≥ q-k in G, so q ≤ max{q : the
// q-th largest degree ≥ q-k}.
func DegreeUpperBound(g *graph.Graph, k int) int {
	n := g.N()
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	ub := 0
	for q := 1; q <= n; q++ {
		if degs[q-1] >= q-k {
			ub = q
		}
	}
	if ub < 1 {
		ub = 1
	}
	return ub
}

// UpperBound returns the tightest of the implemented bounds.
func UpperBound(g *graph.Graph, k int) int {
	ub := CoreUpperBound(g, k)
	if d := DegreeUpperBound(g, k); d < ub {
		ub = d
	}
	return ub
}
