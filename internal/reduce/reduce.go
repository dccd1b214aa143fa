// Package reduce is the one module that decides what an exact k-plex
// search may drop and in which order it branches: it shrinks the
// instance with safe reduction rules before branch-and-bound sees it,
// and hands the search the structural orderings the rules produce along
// the way.
//
// Three deterministic steps make a Kernel:
//
//   - iterated degree peeling: with a certified lower bound lb in hand the
//     search only needs k-plexes of size ≥ lb+1, and every vertex of such
//     a plex has degree ≥ lb+1-k inside it, hence in G. Vertices below
//     the threshold are removed and the rule re-applied until a fixed
//     point — the (lb+1-k)-core.
//   - connected-component decomposition: a k-plex of size s ≥ 2k-1 is
//     connected (a split part would leave some member with too few
//     neighbours), so when lb+1 ≥ 2k-1 each component can be searched
//     independently against the shared bound. Kernel.Comps lists the
//     components; the solver decides whether the bound licenses using
//     them.
//   - degeneracy ordering: repeated minimum-degree removal (ties by
//     index) yields the order branch-and-bound branches over and the
//     per-vertex core numbers. Low-core vertices root small subtrees that
//     prune immediately; the dense residue is searched last, when the
//     incumbent is already strong.
//
// CoTruss adds the paper's pre-quantum reduction on top: the ICDE paper
// integrates the core–truss co-pruning of Chang et al. to fit instances
// onto simulators, and notes the algorithms are orthogonal to any
// reduction that preserves some maximum k-plex. Kernelize and CoTruss
// both preserve every k-plex at or above their target size, which is
// exactly what a bounded search consumes.
package reduce

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/graph"
)

// Stats records what a Kernelize pass did, for observability and the
// experiment tables.
type Stats struct {
	N0, M0     int // original vertex / edge count
	N, M       int // kernel vertex / edge count
	LB         int // the certified lower bound the peel targeted (size ≥ LB+1)
	Peeled     int // vertices removed by iterated degree peeling
	Rounds     int // peeling sweeps until the fixed point (≥ 1)
	Components int // connected components of the kernel
	Degeneracy int // degeneracy of the kernel (max core number, 0 when empty)
}

// Kernel is the outcome of a Kernelize pass: the peeled graph, the map
// back to original vertex ids, and the structural orderings the solver
// branches over. All fields are deterministic functions of (g, k, lb).
type Kernel struct {
	Sub   *graph.Graph // peeled graph, re-indexed to [0, Stats.N)
	Map   []int        // Map[i] = original id of kernel vertex i (ascending)
	Order []int        // degeneracy order of Sub (kernel ids, removal order)
	Core  []int        // Core[v] = core number of kernel vertex v
	Comps [][]int      // connected components of Sub (kernel ids, each sorted, ordered by smallest member)
	Stats Stats
}

// Kernelize shrinks g for a maximum k-plex search that already holds a
// certified lower bound lb (a witness of size lb exists — e.g. the greedy
// solution): any k-plex of size ≥ lb+1 survives in Sub, so solving Sub
// and comparing against lb solves g. k must be ≥ 1 and lb ≥ 0; vertices
// are peeled while their current degree is below lb+1-k.
func Kernelize(g *graph.Graph, k, lb int) Kernel {
	if k < 1 {
		panic(fmt.Sprintf("reduce: k=%d must be ≥ 1", k))
	}
	if lb < 0 {
		panic(fmt.Sprintf("reduce: lower bound %d must be ≥ 0", lb))
	}
	n := g.N()
	st := Stats{N0: n, M0: g.M(), LB: lb}
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
	}
	// Iterated peeling: sweep in index order until a sweep removes
	// nothing. The fixed point (the (lb+1-k)-core) is unique whatever the
	// removal order, and index-order sweeps make Rounds deterministic too.
	threshold := lb + 1 - k
	st.Rounds = 1
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !alive[v] || deg[v] >= threshold {
				continue
			}
			alive[v] = false
			st.Peeled++
			changed = true
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg[u]--
				}
			}
		}
		if changed {
			st.Rounds++
		}
	}
	keep := make([]int, 0, n-st.Peeled)
	for v := 0; v < n; v++ {
		if alive[v] {
			keep = append(keep, v)
		}
	}
	sub, ids := g.InducedSubgraph(keep)
	kern := Kernel{Sub: sub, Map: ids}
	kern.Order, kern.Core = DegeneracyOrder(sub)
	kern.Comps = Components(sub)
	st.N, st.M = sub.N(), sub.M()
	st.Components = len(kern.Comps)
	for _, c := range kern.Core {
		if c > st.Degeneracy {
			st.Degeneracy = c
		}
	}
	kern.Stats = st
	return kern
}

// CoTruss is the core–truss co-pruning of Chang et al. for a target
// k-plex size q ≥ 1, the reduction the paper runs before qMKP. It
// alternates two rules, each safe for every k-plex of size ≥ q:
//
//   - vertex (core) rule: a member has degree ≥ q-k inside the plex,
//     hence in G. This is Kernelize(g, k, q-1).
//   - edge (truss) rule: the endpoints of an edge inside the plex each
//     miss at most k-1 members, so they share ≥ q-2k common neighbours.
//     Edges of the kernel below that are deleted.
//
// The rules repeat until an edge pass deletes nothing. Both only delete,
// so the fixed point is unique whatever the order. Map is composed
// across rounds, and Order, Core and Comps describe the final Sub. Stats
// covers the whole pass: N0 and M0 are g's, Peeled and Rounds sum over
// every vertex peel. g is not modified.
func CoTruss(g *graph.Graph, k, q int) Kernel {
	kern := Kernelize(g, k, q-1)
	st := kern.Stats
	for {
		// Sub is a fresh graph owned by kern, so the edge pass may edit it.
		sub, deleted := kern.Sub, false
		for _, e := range sub.Edges() {
			if sub.CommonNeighbors(e[0], e[1]) < q-2*k {
				sub.RemoveEdge(e[0], e[1])
				deleted = true
			}
		}
		if !deleted {
			break
		}
		next := Kernelize(sub, k, q-1)
		for i, v := range next.Map {
			next.Map[i] = kern.Map[v]
		}
		st.Peeled += next.Stats.Peeled
		st.Rounds += next.Stats.Rounds
		kern = next
	}
	st.N, st.M = kern.Stats.N, kern.Stats.M
	st.Components, st.Degeneracy = kern.Stats.Components, kern.Stats.Degeneracy
	kern.Stats = st
	return kern
}

// LiftSet maps a vertex set of the kernel back to original ids. The
// result is a fresh slice in the kernel set's order.
func (kn Kernel) LiftSet(set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = kn.Map[v]
	}
	return out
}

// DegeneracyOrder returns the minimum-degree removal order of g (ties
// broken by lowest index) and the per-vertex core numbers: core[v] is the
// largest c such that v survives in the c-core. The order is what the
// branch-and-bound branches over — order[i]'s candidates are exactly the
// later positions — and max(core) is the degeneracy of g.
//
// The peel is a bucket queue: one bit-vector bucket of vertices per
// current degree, with a count per bucket. Each removal takes the lowest
// set index of the lowest non-empty bucket. A removal lowers a degree by
// one at most, so the next minimum is at least one below the last and the
// scan restarts there. Over the whole peel the scan climbs at most
// n + maxdeg buckets and reads one bucket's words per removal, so the
// peel is O(n²/64 + m).
func DegeneracyOrder(g *graph.Graph) (order, core []int) {
	n := g.N()
	order = make([]int, 0, n)
	core = make([]int, n)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	// Bucket d is words[d*nw : (d+1)*nw], bit v set iff v is unremoved
	// with current degree d; size[d] counts its members.
	nw := (n + 63) / 64
	words := make([]uint64, (maxDeg+1)*nw)
	size := make([]int, maxDeg+1)
	move := func(v, from, to int) {
		if from >= 0 {
			words[from*nw+v/64] &^= 1 << uint(v%64)
			size[from]--
		}
		if to >= 0 {
			words[to*nw+v/64] |= 1 << uint(v%64)
			size[to]++
		}
	}
	for v := 0; v < n; v++ {
		move(v, -1, deg[v])
	}
	removed := make([]bool, n)
	running := 0 // max min-degree seen so far = core number of the next removal
	d := 0       // no unremoved vertex has degree below d
	for len(order) < n {
		for size[d] == 0 {
			d++
		}
		u := -1
		for i, word := range words[d*nw : (d+1)*nw] {
			if word != 0 {
				u = i*64 + bits.TrailingZeros64(word)
				break
			}
		}
		running = max(running, d)
		core[u] = running
		removed[u] = true
		move(u, d, -1)
		order = append(order, u)
		for _, w := range g.Neighbors(u) {
			if !removed[w] {
				move(w, deg[w], deg[w]-1)
				deg[w]--
			}
		}
		d = max(d-1, 0)
	}
	return order, core
}

// Components returns the connected components of g as sorted vertex
// lists, ordered by smallest member — a deterministic partition for the
// per-component searches.
func Components(g *graph.Graph) [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], s)
		comp := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
					comp = append(comp, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
