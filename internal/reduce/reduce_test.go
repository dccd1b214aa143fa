package reduce_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/reduce"
)

// TestKernelizePreservesOptimum is the soundness contract: solving the
// kernel and comparing against the lower bound solves the original. It
// holds for both reductions, Kernelize against lb and CoTruss for target
// size lb+1, each run as a subtest over the same instances. Ground truth
// comes from the naive 2^n enumerator on small instances.
func TestKernelizePreservesOptimum(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reduce func(g *graph.Graph, k, lb int) reduce.Kernel
	}{
		{"Kernelize", reduce.Kernelize},
		{"CoTruss", func(g *graph.Graph, k, lb int) reduce.Kernel { return reduce.CoTruss(g, k, lb+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 40; trial++ {
				n := 4 + rng.Intn(12)
				g := graph.Gnp(n, 0.15+rng.Float64()*0.6, rng.Int63())
				k := 1 + rng.Intn(3)
				want, err := kplex.Naive(g, k)
				if err != nil {
					t.Fatal(err)
				}
				lb := len(kplex.Greedy(g, k))
				kern := tc.reduce(g, k, lb)
				// Every k-plex of size ≥ lb+1 must survive; the optimum of
				// the kernel, lifted back, combined with the lb witness, is
				// the optimum of g.
				got := lb
				if kern.Sub.N() > 0 {
					sub, err := kplex.Naive(kern.Sub, min(k, kern.Sub.N()))
					if err != nil {
						t.Fatal(err)
					}
					if sub.Size > got {
						got = sub.Size
						lifted := kern.LiftSet(sub.Set)
						if !g.IsKPlex(lifted, k) {
							t.Fatalf("trial %d: lifted kernel optimum %v is not a %d-plex of g", trial, lifted, k)
						}
						if len(lifted) != sub.Size {
							t.Fatalf("trial %d: lift changed the set size", trial)
						}
					}
				}
				if got != want.Size {
					t.Fatalf("trial %d (n=%d k=%d lb=%d): kernel path says %d, naive says %d (peeled %d)",
						trial, n, k, lb, got, want.Size, kern.Stats.Peeled)
				}
			}
		})
	}
}

// Peeling must never remove a vertex of a k-plex at or above the target
// size lb+1: plant a strong k-plex, peel against lb = plant size - 1.
func TestKernelizeKeepsPlantedPlex(t *testing.T) {
	g, plant := graph.PlantedKPlex(60, 10, 2, 0.05, 9)
	kern := reduce.Kernelize(g, 2, len(plant)-1)
	inKernel := make(map[int]bool, kern.Sub.N())
	for _, orig := range kern.Map {
		inKernel[orig] = true
	}
	for _, v := range plant {
		if !inKernel[v] {
			t.Fatalf("peeling removed planted vertex %d (stats %+v)", v, kern.Stats)
		}
	}
	if kern.Stats.Peeled == 0 {
		t.Error("sparse noise around the plant should peel at least one vertex")
	}
	if kern.Stats.N0 != 60 || kern.Stats.N != kern.Sub.N() || len(kern.Map) != kern.Sub.N() {
		t.Errorf("inconsistent stats/map: %+v, sub n=%d", kern.Stats, kern.Sub.N())
	}
}

func TestDegeneracyOrder(t *testing.T) {
	t.Run("PathPlusIsolated", func(t *testing.T) {
		// Path P4 plus an isolated vertex: degeneracy 1, isolated first.
		g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
		order, core := reduce.DegeneracyOrder(g)
		if len(order) != 5 || len(core) != 5 {
			t.Fatalf("order/core lengths %d/%d", len(order), len(core))
		}
		if order[0] != 4 {
			t.Errorf("isolated vertex should be removed first, order=%v", order)
		}
		if core[4] != 0 {
			t.Errorf("isolated vertex core = %d, want 0", core[4])
		}
		for _, v := range []int{0, 1, 2, 3} {
			if core[v] != 1 {
				t.Errorf("path vertex %d core = %d, want 1", v, core[v])
			}
		}
	})
	t.Run("TriangleWithTail", func(t *testing.T) {
		// A triangle with a pendant vertex on 0: the triangle is the 2-core.
		_, core := reduce.DegeneracyOrder(graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}}))
		for v, want := range []int{2, 2, 2, 1} {
			if core[v] != want {
				t.Errorf("core[%d] = %d, want %d (all: %v)", v, core[v], want, core)
			}
		}
	})
	t.Run("Clique", func(t *testing.T) {
		// K6: every vertex has core number 5.
		k6 := graph.New(6)
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				k6.AddEdge(u, v)
			}
		}
		_, core := reduce.DegeneracyOrder(k6)
		for v, c := range core {
			if c != 5 {
				t.Errorf("core[%d] = %d, want 5", v, c)
			}
		}
	})
	t.Run("TriangleInStar", func(t *testing.T) {
		// A triangle inside a star: the triangle is the 2-core.
		tri := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}, {2, 5}})
		_, core := reduce.DegeneracyOrder(tri)
		for v := 0; v < 3; v++ {
			if core[v] != 2 {
				t.Errorf("triangle vertex %d core = %d, want 2", v, core[v])
			}
		}
		for v := 3; v < 6; v++ {
			if core[v] != 1 {
				t.Errorf("leaf %d core = %d, want 1", v, core[v])
			}
		}
	})
}

// The order must be a permutation and deterministic; core numbers must be
// monotone along it (the running max construction).
func TestDegeneracyOrderPermutationAndDeterminism(t *testing.T) {
	g := graph.Gnm(50, 160, 23)
	o1, c1 := reduce.DegeneracyOrder(g)
	o2, c2 := reduce.DegeneracyOrder(g)
	seen := make([]bool, 50)
	for i, v := range o1 {
		if v != o2[i] || c1[v] != c2[v] {
			t.Fatalf("two runs disagree at position %d", i)
		}
		if seen[v] {
			t.Fatalf("vertex %d repeated in order", v)
		}
		seen[v] = true
	}
	for i := 1; i < len(o1); i++ {
		if c1[o1[i]] < c1[o1[i-1]] {
			t.Fatalf("core numbers not monotone along the removal order at %d", i)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	comps := reduce.Components(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestKernelizeBadArgsPanic(t *testing.T) {
	g := graph.New(3)
	for _, tc := range []struct{ k, lb int }{{0, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Kernelize(k=%d, lb=%d) did not panic", tc.k, tc.lb)
				}
			}()
			reduce.Kernelize(g, tc.k, tc.lb)
		}()
	}
}

// coTrussReference is the co-pruning pass CoTruss replaced, rewritten on
// graph's exported API: the vertex rule (degree < q-k) and the edge rule
// (< q-2k common neighbours, only when q > 2k) alternate in place on a
// clone until a full pass changes nothing; the survivors are then
// re-indexed in ascending order.
func coTrussReference(g *graph.Graph, k, q int) (*graph.Graph, []int) {
	work := g.Clone()
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = true
	}
	vertexThreshold, edgeThreshold := q-k, q-2*k
	for {
		changed := false
		for v := 0; v < work.N(); v++ {
			if alive[v] && work.Degree(v) < vertexThreshold {
				alive[v] = false
				changed = true
				for _, u := range work.Neighbors(v) {
					work.RemoveEdge(v, u)
				}
			}
		}
		if edgeThreshold > 0 {
			for _, e := range work.Edges() {
				if !alive[e[0]] || !alive[e[1]] {
					continue
				}
				if work.CommonNeighbors(e[0], e[1]) < edgeThreshold {
					work.RemoveEdge(e[0], e[1])
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	var keep []int
	for v, a := range alive {
		if a {
			keep = append(keep, v)
		}
	}
	return work.InducedSubgraph(keep)
}

// CoTruss must reach the reference's fixed point exactly: the same
// surviving ids and edges, with Order, Core and Comps describing the
// final Sub, and g left untouched.
func TestCoTrussMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		g := graph.Gnp(n, rng.Float64(), rng.Int63())
		k := 1 + rng.Intn(4)
		q := 1 + rng.Intn(n+2)
		before := g.Edges()
		kern := reduce.CoTruss(g, k, q)
		wantSub, wantMap := coTrussReference(g, k, q)
		if !slices.Equal(g.Edges(), before) {
			t.Fatalf("trial %d: CoTruss modified g", trial)
		}
		if !slices.Equal(kern.Map, wantMap) {
			t.Fatalf("trial %d (n=%d k=%d q=%d): Map %v, reference %v", trial, n, k, q, kern.Map, wantMap)
		}
		if !slices.Equal(kern.Sub.Edges(), wantSub.Edges()) {
			t.Fatalf("trial %d (n=%d k=%d q=%d): edges %v, reference %v",
				trial, n, k, q, kern.Sub.Edges(), wantSub.Edges())
		}
		order, core := reduce.DegeneracyOrder(kern.Sub)
		comps := reduce.Components(kern.Sub)
		if !slices.Equal(kern.Order, order) || !slices.Equal(kern.Core, core) ||
			!slices.EqualFunc(kern.Comps, comps, slices.Equal[[]int]) {
			t.Fatalf("trial %d: Order/Core/Comps do not describe the final Sub", trial)
		}
		st := kern.Stats
		if st.N0 != n || st.M0 != len(before) || st.N != kern.Sub.N() || st.M != kern.Sub.M() || st.Peeled != n-st.N {
			t.Fatalf("trial %d: inconsistent stats %+v (sub n=%d m=%d)", trial, st, kern.Sub.N(), kern.Sub.M())
		}
	}
}

// Pruning for the exact optimum size q = opt must keep a maximum k-plex:
// the kernel's optimum, lifted back, is a k-plex of g of size opt.
func TestCoTrussPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := graph.Gnp(11, 0.5, rng.Int63())
		for k := 1; k <= 2; k++ {
			opt, err := kplex.Naive(g, k)
			if err != nil {
				t.Fatal(err)
			}
			kern := reduce.CoTruss(g, k, opt.Size)
			got, err := kplex.Naive(kern.Sub, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != opt.Size {
				t.Fatalf("trial %d k=%d: co-truss pruning lost the optimum: %d -> %d", trial, k, opt.Size, got.Size)
			}
			if lifted := kern.LiftSet(got.Set); len(lifted) != opt.Size || !g.IsKPlex(lifted, k) {
				t.Fatalf("trial %d k=%d: lifted kernel optimum %v is not a %d-plex of g of size %d", trial, k, lifted, k, opt.Size)
			}
		}
	}
}

// Asking for a large 2-plex must strip the leaves of a star while the
// planted 6-clique, a 2-plex of the target size, survives.
func TestCoTrussShrinksSparseGraph(t *testing.T) {
	g := graph.New(12)
	for i := 1; i <= 5; i++ {
		g.AddEdge(0, i) // star leaves 1..5
	}
	for u := 6; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			g.AddEdge(u, v) // clique 6..11
		}
	}
	kern := reduce.CoTruss(g, 2, 6)
	if kern.Stats.Peeled == 0 {
		t.Error("expected pruning to remove star leaves")
	}
	if got, err := kplex.Naive(kern.Sub, 2); err != nil || got.Size < 6 {
		t.Errorf("pruned graph lost the size-6 plex: max = %d (%v)", got.Size, err)
	}
}
