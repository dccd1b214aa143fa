// Package graph implements the undirected, unweighted graphs the paper's
// algorithms operate on: construction, complementation, k-plex
// verification, synthetic generators matching the paper's datasets, and
// a small text format. Reductions, the paper's core–truss co-pruning
// among them, live in package reduce.
//
// Vertices are integers 0..N-1. The paper's figures use 1-based labels
// (v1..v6); the text I/O accepts either and stores 0-based.
package graph

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitvec"
)

// Graph is an undirected simple graph. The zero value is unusable; create
// graphs with New.
type Graph struct {
	n   int
	adj []*bitvec.Vector // adj[u].Get(v) == true iff {u,v} ∈ E
	deg []int
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{n: n, adj: make([]*bitvec.Vector, n), deg: make([]int, n)}
	for i := range g.adj {
		g.adj[i] = bitvec.New(n)
	}
	return g
}

// FromEdges builds a graph on n vertices with the given edges. Duplicate
// edges are collapsed; self-loops are rejected.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u,v}. Adding an existing edge is a
// no-op; self-loops panic.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if g.adj[u].Get(v) {
		return
	}
	g.adj[u].Set(v, true)
	g.adj[v].Set(u, true)
	g.deg[u]++
	g.deg[v]++
	g.m++
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v || !g.adj[u].Get(v) {
		return
	}
	g.adj[u].Set(v, false)
	g.adj[v].Set(u, false)
	g.deg[u]--
	g.deg[v]--
	g.m--
}

// HasEdge reports whether {u,v} ∈ E.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adj[u].Get(v)
}

// Degree returns the degree of v in the full graph.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return g.deg[v]
}

// Neighbors returns the sorted neighbour list of v, walking v's row a
// word at a time: O(n/64 + deg(v)).
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	row := g.adj[v]
	out := make([]int, 0, g.deg[v])
	for u := row.NextSet(0); u >= 0; u = row.NextSet(u + 1) {
		out = append(out, u)
	}
	return out
}

// Edges returns all edges as (u,v) pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.adj[u].Get(v) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Complement returns the complement graph Ḡ on the same vertex set: {u,v}
// is an edge of the result iff it is not an edge of g.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.adj[u].Get(v) {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		c.adj[u] = g.adj[u].Clone()
	}
	copy(c.deg, g.deg)
	c.m = g.m
	return c
}

// InducedDegree returns |N(v) ∩ set| — the degree of v inside the subgraph
// induced by set (v itself need not be in set).
func (g *Graph) InducedDegree(v int, set []int) int {
	g.checkVertex(v)
	d := 0
	for _, u := range set {
		if u != v && g.adj[v].Get(u) {
			d++
		}
	}
	return d
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// plus the mapping new-index -> old-index. Vertices keep their relative
// order.
func (g *Graph) InducedSubgraph(set []int) (*Graph, []int) {
	vs := append([]int(nil), set...)
	sort.Ints(vs)
	idx := make(map[int]int, len(vs))
	for i, v := range vs {
		g.checkVertex(v)
		idx[v] = i
	}
	sub := New(len(vs))
	for i, v := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.adj[v].Get(vs[j]) {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, vs
}

// CommonNeighbors returns |N(u) ∩ N(v)| (the number of triangles through
// edge {u,v} when the edge exists). Computed as popcount(adj[u] ∧ adj[v]):
// the rows have no self-loop bits, so u and v exclude themselves from the
// intersection automatically.
func (g *Graph) CommonNeighbors(u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adj[u].AndCount(g.adj[v])
}

// NeighborVec returns a copy of v's adjacency row as a bit vector in
// natural order (bit u set iff {v,u} ∈ E) — the multi-word counterpart of
// NeighborMask, defined at any n, from which kplex's branch-and-bound
// builds its complement rows. Mutating the copy does not affect g.
func (g *Graph) NeighborVec(v int) *bitvec.Vector {
	g.checkVertex(v)
	return g.adj[v].Clone()
}

// checkMaskWidth guards every mask-convention entry point: subset masks
// are single uint64 words, so the ket encoding only exists for n ≤ 64.
func checkMaskWidth(n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("graph: mask convention requires 0 ≤ n ≤ 64, got n=%d", n))
	}
}

// NeighborMask returns v's adjacency row as a subset mask in the paper's
// ket convention (bit n-1-u set iff {v,u} ∈ E) — the word the semantic
// oracle fast path popcounts against subset masks. Panics if n > 64.
func (g *Graph) NeighborMask(v int) uint64 {
	g.checkVertex(v)
	checkMaskWidth(g.n)
	// adj[v] stores neighbour u at bit u of word 0; reversing the word
	// moves it to bit 63-u, and dropping the 64-n padding lands it at the
	// ket position n-1-u.
	return bits.Reverse64(g.adj[v].Word(0)) >> uint(64-g.n)
}

// InducedDegreeMask is InducedDegree for a mask-encoded subset: it returns
// |N(v) ∩ set| with one popcount (v's own bit never contributes — rows
// carry no self-loops). Panics if n > 64.
func (g *Graph) InducedDegreeMask(v int, mask uint64) int {
	checkMaskWidth(g.n)
	return bits.OnesCount64(g.NeighborMask(v) & mask)
}

// MaskSubset interprets bits 0..n-1 of mask as vertex membership (bit i set
// means vertex i included) and returns the member list. It is the decoding
// convention the gate-based simulator uses: paper state |v1 v2 ... vn> has
// v1 as the most significant bit; we store v_i at bit position n-1-i so
// integer values printed in the paper (e.g. |100100> = |36| = {v1,v4})
// decode identically. The encoding is a single uint64, so n ≤ 64 is an
// explicit precondition (the shifts below would otherwise be undefined).
func MaskSubset(mask uint64, n int) []int {
	checkMaskWidth(n)
	out := []int{}
	for i := 0; i < n; i++ {
		if mask&(1<<uint(n-1-i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// SubsetMask is the inverse of MaskSubset. Like MaskSubset it requires
// n ≤ 64 and panics otherwise.
func SubsetMask(set []int, n int) uint64 {
	checkMaskWidth(n)
	var mask uint64
	for _, v := range set {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, n))
		}
		mask |= 1 << uint(n-1-v)
	}
	return mask
}

// String renders a compact description ("graph(n=6,m=10)").
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d,m=%d)", g.n, g.m)
}
