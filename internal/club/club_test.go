package club

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// path5 is the path graph 0-1-2-3-4.
func path5() *graph.Graph {
	return graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

func TestIsNCliqueOnPath(t *testing.T) {
	g := path5()
	if !IsNClique(g, []int{0, 1, 2}, 2) {
		t.Error("path prefix should be a 2-clique")
	}
	if IsNClique(g, []int{0, 4}, 2) {
		t.Error("path endpoints at distance 4 are not a 2-clique")
	}
	// Distances measured in the WHOLE graph: in a star, all leaves are
	// pairwise at distance 2 through the centre, so the leaf set is a
	// 2-clique even though it induces no edges.
	star := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if !IsNClique(star, []int{1, 2, 3, 4}, 2) {
		t.Error("star leaves should be a 2-clique (whole-graph distances)")
	}
	if IsNClique(g, []int{0, 1}, 0) {
		t.Error("n=0 accepted")
	}
}

func TestIsNClubVsNClique(t *testing.T) {
	g := path5()
	// Star leaves are a 2-clique but NOT a 2-club: the induced subgraph
	// is edgeless — the canonical separation of the two models.
	star := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if IsNClub(star, []int{1, 2, 3, 4}, 2) {
		t.Error("star leaves must not be a 2-club (induced subgraph edgeless)")
	}
	if !IsNClub(g, []int{0, 1, 2}, 2) {
		t.Error("{0,1,2} should be a 2-club")
	}
	if !IsNClub(g, []int{3}, 1) || !IsNClub(g, nil, 1) {
		t.Error("singletons and the empty set are trivially clubs")
	}
}

func TestIsNClan(t *testing.T) {
	// C5 (5-cycle): the whole vertex set is a 2-clique and has induced
	// diameter 2, hence a 2-clan.
	c5 := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	all := []int{0, 1, 2, 3, 4}
	if !IsNClan(c5, all, 2) {
		t.Error("C5 should be a 2-clan")
	}
	star := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if IsNClan(star, []int{1, 2, 3, 4}, 2) {
		t.Error("n-clique that is not an n-club accepted as n-clan")
	}
}

func TestMaxNClubPath(t *testing.T) {
	g := path5()
	res, err := MaxNClub(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Largest induced subgraph of a path with diameter ≤ 2 is any 3
	// consecutive vertices.
	if res.Size != 3 {
		t.Errorf("max 2-club of P5 = %d, want 3 (%v)", res.Size, res.Set)
	}
	if !IsNClub(g, res.Set, 2) {
		t.Errorf("returned set %v is not a 2-club", res.Set)
	}
}

func TestMaxNClubValidation(t *testing.T) {
	if _, err := MaxNClub(graph.New(23), 2); err == nil {
		t.Error("oversized enumeration accepted")
	}
	if _, err := MaxNClub(path5(), 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestOracleMatchesClassicalPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(3)
		g := graph.Gnp(n, 0.35+rng.Float64()*0.3, rng.Int63())
		for _, L := range []int{1, 2, 3} {
			if L >= n {
				continue
			}
			T := 1 + rng.Intn(n)
			orc, err := BuildOracle(g, L, T, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				set := graph.MaskSubset(mask, n)
				want := len(set) >= T && IsNClub(g, set, L)
				if got := orc.Marked(mask); got != want {
					t.Fatalf("n=%d L=%d T=%d mask=%b: oracle=%v classical=%v",
						n, L, T, mask, got, want)
				}
			}
		}
	}
}

func TestOracleL1IsCliqueOracle(t *testing.T) {
	// A 1-club is exactly a clique: the oracle must agree with the
	// pairwise-adjacency definition.
	g := graph.Example6()
	orc, err := BuildOracle(g, 1, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 64; mask++ {
		set := graph.MaskSubset(mask, 6)
		isClique := true
		for i := 0; i < len(set) && isClique; i++ {
			for j := i + 1; j < len(set); j++ {
				if !g.HasEdge(set[i], set[j]) {
					isClique = false
					break
				}
			}
		}
		want := isClique && len(set) >= 3
		if got := orc.Marked(mask); got != want {
			t.Fatalf("mask %06b: oracle=%v clique-check=%v", mask, got, want)
		}
	}
}

func TestOracleValidation(t *testing.T) {
	g := path5()
	if _, err := BuildOracle(g, 0, 2, Options{}); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := BuildOracle(g, 5, 2, Options{}); err == nil {
		t.Error("L=n accepted")
	}
	if _, err := BuildOracle(g, 2, 0, Options{}); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := BuildOracle(graph.New(0), 1, 1, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestQMaxClubMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(3)
		g := graph.Gnp(n, 0.4, rng.Int63())
		for _, L := range []int{2, 3} {
			want, err := MaxNClub(g, L)
			if err != nil {
				t.Fatal(err)
			}
			got, err := QMaxClub(g, L, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != want.Size {
				t.Fatalf("n=%d L=%d: quantum %d != enumeration %d", n, L, got.Size, want.Size)
			}
			if got.Size > 0 && !IsNClub(g, got.Set, L) {
				t.Fatalf("quantum answer %v is not an %d-club", got.Set, L)
			}
		}
	}
}

func TestReachabilityGateGrowth(t *testing.T) {
	// Larger diameter bounds must add reachability gates monotonically.
	g := graph.Gnm(7, 10, 3)
	prev := 0
	for L := 1; L <= 3; L++ {
		orc, err := BuildOracle(g, L, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gates := orc.ComponentGates()[BlockReachability]
		if gates < prev {
			t.Errorf("L=%d: reachability gates %d below L-1's %d", L, gates, prev)
		}
		prev = gates
	}
}

func TestClubFastPathMatchesCircuit(t *testing.T) {
	// The semantic masked-BFS path must agree with the compiled circuit's
	// truth table on every mask, for every diameter bound.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(4)
		g := graph.Gnp(n, 0.25+rng.Float64()*0.5, rng.Int63())
		L := 1 + rng.Intn(3)
		T := 1 + rng.Intn(n)
		circuit, err := BuildOracle(g, L, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := BuildOracle(g, L, T, Options{FastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		ctt, ftt := circuit.TruthTable(), fast.TruthTable()
		for mask := range ctt {
			if ctt[mask] != ftt[mask] {
				t.Fatalf("n=%d L=%d T=%d mask=%b: circuit %v, fast %v",
					n, L, T, mask, ctt[mask], ftt[mask])
			}
			if fast.Marked(uint64(mask)) != fast.MarkedCircuit(uint64(mask)) {
				t.Fatalf("n=%d L=%d T=%d mask=%b: Marked disagrees with circuit replay",
					n, L, T, mask)
			}
			set := graph.MaskSubset(uint64(mask), n)
			if want := len(set) >= T && IsNClub(g, set, L); ctt[mask] != want {
				t.Fatalf("n=%d L=%d T=%d mask=%b: oracle %v, classical IsNClub %v",
					n, L, T, mask, ctt[mask], want)
			}
		}
	}
}

func TestClubTruthTableDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Gnp(7, 0.45, 62)
	for _, opts := range []Options{{}, {FastPath: true}} {
		o, err := BuildOracle(g, 2, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.SetWorkers(1)
		want := o.TruthTable()
		for _, w := range []int{2, 8} {
			parallel.SetWorkers(w)
			got := o.TruthTable()
			for mask := range want {
				if got[mask] != want[mask] {
					t.Fatalf("fast=%v workers=%d: truth table differs at mask %b",
						opts.FastPath, w, mask)
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}
