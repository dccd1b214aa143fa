package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate collapses
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
	g.RemoveEdge(0, 1)
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Error("RemoveEdge did not remove")
	}
	g.RemoveEdge(0, 1) // no-op
	if g.M() != 0 {
		t.Error("double remove changed edge count")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestNeighborsAndEdges(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {2, 3}})
	got := g.Neighbors(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

// TestNeighborsWordBoundaries pins the word-level row walk against the
// definitional ascending HasEdge scan at sizes on and around the 64-bit
// word boundaries, where the last vertex sits alone in its word or fills
// it. Vertex n-1 gets an edge when n > 2 and vertex n/2 is isolated, so
// both a full last column and an empty row are exercised.
func TestNeighborsWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 63, 64, 65, 128, 129} {
		g := Gnp(n, 0.1, rng.Int63())
		iso := n / 2
		for u := 0; u < n; u++ {
			g.RemoveEdge(iso, u) // no-op for non-edges and u == iso
		}
		if n > 2 && !g.HasEdge(0, n-1) {
			g.AddEdge(0, n-1)
		}
		for v := 0; v < n; v++ {
			var want []int
			for u := 0; u < n; u++ {
				if g.HasEdge(v, u) {
					want = append(want, u)
				}
			}
			got := g.Neighbors(v)
			if len(got) != len(want) || len(got) != g.Degree(v) {
				t.Fatalf("n=%d Neighbors(%d) = %v, want %v (degree %d)", n, v, got, want, g.Degree(v))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d Neighbors(%d) = %v, want %v", n, v, got, want)
				}
			}
		}
		if len(g.Neighbors(iso)) != 0 {
			t.Errorf("n=%d: isolated vertex %d has neighbours %v", n, iso, g.Neighbors(iso))
		}
	}
}

func TestComplement(t *testing.T) {
	g := Example6()
	c := g.Complement()
	if g.M()+c.M() != 15 {
		t.Fatalf("m + m̄ = %d, want 15", g.M()+c.M())
	}
	// The paper's Fig. 5 complement edges e1..e8 (1-based):
	// (1,6),(2,6),(3,6),(4,6),(2,5),(2,3),(3,5),(3,4).
	wantEdges := [][2]int{{0, 5}, {1, 5}, {2, 5}, {3, 5}, {1, 4}, {1, 2}, {2, 4}, {2, 3}}
	if c.M() != len(wantEdges) {
		t.Fatalf("complement has %d edges, want %d", c.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !c.HasEdge(e[0], e[1]) {
			t.Errorf("complement missing edge %v", e)
		}
	}
	// Complement is an involution.
	cc := c.Complement()
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if cc.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("double complement differs at (%d,%d)", u, v)
			}
		}
	}
}

func TestComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Gnp(9, 0.4, seed)
		c := g.Complement()
		if g.M()+c.M() != 36 {
			return false
		}
		for u := 0; u < 9; u++ {
			for v := u + 1; v < 9; v++ {
				if g.HasEdge(u, v) == c.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInducedDegreeAndSubgraph(t *testing.T) {
	g := Example6()
	set := []int{0, 1, 3, 4} // the paper's maximum 2-plex {v1,v2,v4,v5}
	if d := g.InducedDegree(0, set); d != 3 {
		t.Errorf("InducedDegree(v1) = %d, want 3", d)
	}
	if d := g.InducedDegree(1, set); d != 2 {
		t.Errorf("InducedDegree(v2) = %d, want 2", d)
	}
	sub, ids := g.InducedSubgraph(set)
	if sub.N() != 4 {
		t.Fatalf("induced n = %d, want 4", sub.N())
	}
	if sub.M() != 5 {
		t.Errorf("induced m = %d, want 5", sub.M())
	}
	for i, v := range ids {
		if v != set[i] {
			t.Errorf("ids[%d] = %d, want %d", i, v, set[i])
		}
	}
}

// inducedSubgraphReference is InducedSubgraph as it was before the row
// walk, less the index map it built and never read: every pair of the
// sorted set probed bit by bit.
func inducedSubgraphReference(g *Graph, set []int) (*Graph, []int) {
	vs := append([]int(nil), set...)
	sort.Ints(vs)
	for _, v := range vs {
		g.checkVertex(v)
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

// The row walk must induce exactly the subgraph and mapping the pairwise
// probe did: on the empty set, single vertices, the whole graph, sets of
// 63, 64 and 65 vertices (one word, full, and one past) and random sets,
// in unsorted input order, on graphs from sparse to dense.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		n := 66 + rng.Intn(100)
		g := Gnp(n, []float64{0.01, 0.05, 0.2, 0.5, 0.9}[trial%5], rng.Int63())
		sets := [][]int{nil, {rng.Intn(n)}, rng.Perm(n)}
		for _, size := range []int{63, 64, 65, rng.Intn(n + 1), rng.Intn(n + 1)} {
			sets = append(sets, rng.Perm(n)[:size])
		}
		for _, set := range sets {
			where := fmt.Sprintf("trial %d n=%d |set|=%d", trial, n, len(set))
			gotSub, gotIDs := g.InducedSubgraph(set)
			wantSub, wantIDs := inducedSubgraphReference(g, set)
			if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
				t.Fatalf("%s: ids %v, reference %v", where, gotIDs, wantIDs)
			}
			if gotSub.N() != wantSub.N() || gotSub.M() != wantSub.M() {
				t.Fatalf("%s: %v, reference %v", where, gotSub, wantSub)
			}
			if fmt.Sprint(gotSub.Edges()) != fmt.Sprint(wantSub.Edges()) {
				t.Fatalf("%s: edges differ from the reference", where)
			}
			for v := 0; v < gotSub.N(); v++ {
				if gotSub.Degree(v) != wantSub.Degree(v) {
					t.Fatalf("%s: degree of %d is %d, reference %d", where, v, gotSub.Degree(v), wantSub.Degree(v))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated vertex did not panic")
		}
	}()
	Gnp(5, 0.5, 1).InducedSubgraph([]int{1, 3, 1})
}

func TestCommonNeighbors(t *testing.T) {
	g := Example6()
	// v1(0) and v4(3): common neighbours are v2(1) and v5(4).
	if c := g.CommonNeighbors(0, 3); c != 2 {
		t.Errorf("CommonNeighbors(v1,v4) = %d, want 2", c)
	}
}

func TestMaskSubsetPaperConvention(t *testing.T) {
	// Paper: |100100> = |36> = {v1, v4}.
	set := MaskSubset(36, 6)
	if len(set) != 2 || set[0] != 0 || set[1] != 3 {
		t.Fatalf("MaskSubset(36) = %v, want [0 3]", set)
	}
	if m := SubsetMask([]int{0, 3}, 6); m != 36 {
		t.Errorf("SubsetMask = %d, want 36", m)
	}
	// |100001> = |33> = {v1, v6}.
	set = MaskSubset(33, 6)
	if len(set) != 2 || set[0] != 0 || set[1] != 5 {
		t.Fatalf("MaskSubset(33) = %v, want [0 5]", set)
	}
}

func TestMaskRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		mask := uint64(raw) & 0x3FF // 10 bits
		return SubsetMask(MaskSubset(mask, 10), 10) == mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	g := Example6()
	c := g.Clone()
	c.AddEdge(2, 5)
	if g.HasEdge(2, 5) {
		t.Error("Clone shares storage with original")
	}
	if g.M() == c.M() {
		t.Error("edge counts should differ after mutation")
	}
}

func TestCommonNeighborsMatchesScan(t *testing.T) {
	// The popcount implementation must agree with the definitional scan.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(70) // crosses the single-word boundary
		g := Gnp(n, 0.4, rng.Int63())
		for rep := 0; rep < 20; rep++ {
			u, v := rng.Intn(n), rng.Intn(n)
			want := 0
			for w := 0; w < n; w++ {
				if w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w) {
					want++
				}
			}
			if got := g.CommonNeighbors(u, v); got != want {
				t.Fatalf("n=%d CommonNeighbors(%d,%d) = %d, want %d", n, u, v, got, want)
			}
		}
	}
}

func TestNeighborMaskKetConvention(t *testing.T) {
	g := Example6()
	for v := 0; v < g.N(); v++ {
		if got, want := g.NeighborMask(v), SubsetMask(g.Neighbors(v), g.N()); got != want {
			t.Errorf("NeighborMask(%d) = %06b, want %06b", v, got, want)
		}
	}
	// Full-width case: n = 64 must not shift out of range.
	big := New(64)
	big.AddEdge(0, 63)
	if got := big.NeighborMask(0); got != 1 {
		t.Errorf("n=64 NeighborMask(0) = %#x, want 1 (vertex 63 at bit 0)", got)
	}
	if got := big.NeighborMask(63); got != 1<<63 {
		t.Errorf("n=64 NeighborMask(63) = %#x, want bit 63 (vertex 0)", got)
	}
}

func TestInducedDegreeMaskMatchesInducedDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(10)
		g := Gnp(n, 0.5, rng.Int63())
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			set := MaskSubset(mask, n)
			for v := 0; v < n; v++ {
				if got, want := g.InducedDegreeMask(v, mask), g.InducedDegree(v, set); got != want {
					t.Fatalf("n=%d v=%d mask=%b: mask degree %d, set degree %d", n, v, mask, got, want)
				}
			}
		}
	}
}

func TestMaskConventionRejectsWideGraphs(t *testing.T) {
	for name, call := range map[string]func(){
		"MaskSubset": func() { MaskSubset(0, 65) },
		"SubsetMask": func() { SubsetMask(nil, 65) },
		"NeighborMask": func() {
			g := New(65)
			g.NeighborMask(0)
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s accepted n=65 without panicking", name)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.HasPrefix(msg, "graph: ") {
					t.Errorf("%s panic %v lacks the package prefix", name, r)
				}
			}()
			call()
		}()
	}
}
