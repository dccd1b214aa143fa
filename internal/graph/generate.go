package graph

import (
	"fmt"
	"math/rand"
)

// Gnm returns a uniformly random simple graph with exactly n vertices and m
// edges, drawn with the given seed. Panics if m exceeds n(n-1)/2.
func Gnm(n, m int, seed int64) *Graph {
	maxM := n * (n - 1) / 2
	if m < 0 || m > maxM {
		panic(fmt.Sprintf("graph: Gnm(%d,%d): m out of range [0,%d]", n, m, maxM))
	}
	rng := rand.New(rand.NewSource(seed))
	// Sample m distinct pair indices without replacement: a partial
	// Fisher-Yates over the implicit pair list 0..maxM-1. Only the
	// positions a swap has touched differ from the identity, so they live
	// in a map and memory is O(m) however large n is.
	moved := make(map[int]int, m)
	at := func(i int) int {
		if p, ok := moved[i]; ok {
			return p
		}
		return i
	}
	g := New(n)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(maxM-i)
		// Swap positions i and j and take position i; the loop never
		// reads position i again, so only j's new entry is stored.
		pick := at(j)
		moved[j] = at(i)
		u, v := pairFromIndex(pick, n)
		g.AddEdge(u, v)
	}
	return g
}

// pairFromIndex maps an index in [0, n(n-1)/2) to the lexicographically
// ordered pair (u,v), u < v.
func pairFromIndex(idx, n int) (int, int) {
	for u := 0; u < n-1; u++ {
		row := n - 1 - u
		if idx < row {
			return u, u + 1 + idx
		}
		idx -= row
	}
	panic("graph: pair index out of range")
}

// Gnp returns an Erdős–Rényi graph where each edge appears independently
// with probability p.
func Gnp(n int, p float64, seed int64) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: Gnp probability %v out of [0,1]", p))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// PlantedCommunities returns a graph of `groups` communities of `size`
// vertices each, with intra-community edge probability pIn and
// inter-community probability pOut, plus the community assignment. It is
// the workload used by the community-detection example (the paper's
// motivating application).
func PlantedCommunities(groups, size int, pIn, pOut float64, seed int64) (*Graph, []int) {
	n := groups * size
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	comm := make([]int, n)
	for v := range comm {
		comm[v] = v / size
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if comm[u] == comm[v] {
				p = pIn
			}
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g, comm
}

// PlantedKPlex embeds a k-plex of the given size into an otherwise sparse
// random graph and returns the graph plus the planted vertex set. The plant
// is a clique minus a perfect matching on the first min(size, 2(k-1))
// vertices, which makes it exactly a k-plex.
func PlantedKPlex(n, size, k int, pNoise float64, seed int64) (*Graph, []int) {
	if size > n {
		panic(fmt.Sprintf("graph: plant size %d exceeds n %d", size, n))
	}
	g := Gnp(n, pNoise, seed)
	plant := make([]int, size)
	for i := range plant {
		plant[i] = i
	}
	// Make the plant a clique first.
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			g.AddEdge(i, j)
		}
	}
	// Remove a matching of k-1 disjoint edges: each endpoint then misses
	// one neighbour (itself plus one = k missing), still a k-plex.
	for e := 0; e < k-1 && 2*e+1 < size; e++ {
		g.RemoveEdge(2*e, 2*e+1)
	}
	return g, plant
}
