package kplex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestNaiveExample(t *testing.T) {
	g := graph.Example6()
	res, err := Naive(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 4 {
		t.Fatalf("max 2-plex size = %d, want 4", res.Size)
	}
	want := []int{0, 1, 3, 4}
	for i, v := range want {
		if res.Set[i] != v {
			t.Fatalf("Set = %v, want %v", res.Set, want)
		}
	}
	if res.Nodes != 64 {
		t.Errorf("Nodes = %d, want 64", res.Nodes)
	}
}

func TestNaiveRejectsLargeN(t *testing.T) {
	if _, err := Naive(graph.New(26), 1); err == nil {
		t.Error("Naive accepted n=26")
	}
	if _, err := Naive(graph.New(4), 0); err == nil {
		t.Error("Naive accepted k=0")
	}
}

func TestBSMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(6)
		g := graph.Gnp(n, 0.3+rng.Float64()*0.4, rng.Int63())
		for k := 1; k <= 4; k++ {
			want, err := Naive(g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BS(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != want.Size {
				t.Fatalf("n=%d k=%d: BS size %d != naive %d", n, k, got.Size, want.Size)
			}
			if !g.IsKPlex(got.Set, k) {
				t.Fatalf("BS returned a non-k-plex: %v", got.Set)
			}
		}
	}
}

func TestBSValidatesK(t *testing.T) {
	if _, err := BS(graph.New(4), 0); err == nil {
		t.Error("BS accepted k=0")
	}
}

func TestGreedyReturnsValidPlex(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 30; trial++ {
		g := graph.Gnp(12, 0.5, rng.Int63())
		for k := 1; k <= 3; k++ {
			set := Greedy(g, k)
			if len(set) == 0 {
				t.Fatal("greedy returned empty set on non-empty graph")
			}
			if !g.IsKPlex(set, k) {
				t.Fatalf("greedy returned non-k-plex %v (k=%d)", set, k)
			}
		}
	}
}

func TestGreedyOnPlantedPlex(t *testing.T) {
	g, plant := graph.PlantedKPlex(14, 8, 2, 0.05, 9)
	set := Greedy(g, 2)
	if len(set) < len(plant) {
		t.Errorf("greedy found %d, planted %d", len(set), len(plant))
	}
}

func TestBSOnPaperDatasets(t *testing.T) {
	// Table II ground truth: max 2-plex sizes 4, 4, 5, 6.
	wants := map[string]int{
		"G_{7,8}": 4, "G_{8,10}": 4, "G_{9,15}": 5, "G_{10,23}": 6,
	}
	for _, d := range graph.GateDatasets() {
		want, ok := wants[d.Name]
		if !ok {
			continue
		}
		res, err := BS(d.Build(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != want {
			t.Errorf("%s: max 2-plex = %d, want %d (paper Table II)", d.Name, res.Size, want)
		}
	}
}

func TestBSCliqueAndEdgeless(t *testing.T) {
	complete := graph.New(7)
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			complete.AddEdge(u, v)
		}
	}
	res, _ := BS(complete, 1)
	if res.Size != 7 {
		t.Errorf("clique: size %d, want 7", res.Size)
	}
	edgeless := graph.New(7)
	res, _ = BS(edgeless, 3)
	if res.Size != 3 { // any 3 isolated vertices form a 3-plex
		t.Errorf("edgeless k=3: size %d, want 3", res.Size)
	}
}

func TestBSPrunesVsNaive(t *testing.T) {
	g := graph.Gnm(12, 25, 8)
	bs, _ := BS(g, 2)
	naive, _ := Naive(g, 2)
	if bs.Nodes >= naive.Nodes {
		t.Errorf("BS expanded %d nodes, naive scanned %d — no pruning?", bs.Nodes, naive.Nodes)
	}
}

// greedyReference is the definitional formulation Greedy replaced: per
// probe it copies the set, appends the candidate, and re-checks the
// whole thing with IsKPlex. Kept verbatim as the equivalence target —
// Greedy must reproduce its output bit for bit, not just its sizes.
func greedyReference(g *graph.Graph, k int) []int {
	n := g.N()
	var best []int
	for seed := 0; seed < n; seed++ {
		set := []int{seed}
		for {
			bestV, bestGain := -1, -1
			for v := 0; v < n; v++ {
				inSet := false
				for _, x := range set {
					if x == v {
						inSet = true
						break
					}
				}
				if inSet {
					continue
				}
				cand := append(append([]int{}, set...), v)
				if !g.IsKPlex(cand, k) {
					continue
				}
				gain := g.InducedDegree(v, set)
				if gain > bestGain {
					bestV, bestGain = v, gain
				}
			}
			if bestV < 0 {
				break
			}
			set = append(set, bestV)
		}
		if len(set) > len(best) {
			best = set
		}
	}
	sort.Ints(best)
	return best
}

// checkGreedyMatchesReference fails t unless Greedy returns exactly
// greedyReference's set on g.
func checkGreedyMatchesReference(t *testing.T, g *graph.Graph, k int) {
	t.Helper()
	want := greedyReference(g, k)
	got := Greedy(g, k)
	if len(got) != len(want) {
		t.Fatalf("%v k=%d: Greedy %v, reference %v", g, k, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v k=%d: Greedy %v, reference %v", g, k, got, want)
		}
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(16)
		g := graph.Gnp(n, 0.15+rng.Float64()*0.7, rng.Int63())
		for k := 1; k <= 4; k++ {
			checkGreedyMatchesReference(t, g, k)
		}
	}
	if got := Greedy(graph.New(0), 2); len(got) != 0 {
		t.Errorf("empty graph: Greedy = %v, want empty", got)
	}
}

// TestGreedyMatchesReferenceSparse pins Greedy's frontier scan on the
// inputs it was written for: expected degree 0.5-4, so most growth steps
// see a small frontier and many seeds an empty one; isolated vertices,
// including the highest index, which exercise the lowest-index fallback
// while |P| < k; k > n, where every vertex is feasible; and n past 64,
// so rows and the frontier span several words.
func TestGreedyMatchesReferenceSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 2, 3, 5, 8, 63, 64, 65, 129, 130}
	for trial := 0; trial < 20; trial++ {
		sizes = append(sizes, 4+rng.Intn(120))
	}
	for _, n := range sizes {
		d := 0.5 + 3.5*rng.Float64()
		p := 0.0
		if n > 1 {
			p = math.Min(1, d/float64(n-1))
		}
		g := graph.Gnp(n, p, rng.Int63())
		if rng.Intn(2) == 0 {
			for u := 0; u < n-1; u++ {
				g.RemoveEdge(n-1, u)
			}
		}
		ks := []int{1, 2, 3, 4}
		if n <= 8 {
			ks = append(ks, n+2)
		}
		for _, k := range ks {
			checkGreedyMatchesReference(t, g, k)
		}
	}
	for _, k := range []int{1, 2, 3} {
		checkGreedyMatchesReference(t, graph.New(70), k)
	}
}

func TestNaiveMatchesSetSweep(t *testing.T) {
	// The fast-path Naive must pick the same mask (not just the same
	// size) as the original decoded-set sweep, including k > n.
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		g := graph.Gnp(n, 0.4, rng.Int63())
		for _, k := range []int{1, 2, 3, n + 2} {
			var want []int
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				set := graph.MaskSubset(mask, n)
				if len(set) > len(want) && g.IsKPlex(set, k) {
					want = set
				}
			}
			got, err := Naive(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != len(want) {
				t.Fatalf("n=%d k=%d: Naive size %d, sweep %d", n, k, got.Size, len(want))
			}
			for i := range want {
				if got.Set[i] != want[i] {
					t.Fatalf("n=%d k=%d: Naive %v, sweep %v", n, k, got.Set, want)
				}
			}
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	g := graph.Gnm(64, 600, 5)
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Greedy(g, 2)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			greedyReference(g, 2)
		}
	})
}
