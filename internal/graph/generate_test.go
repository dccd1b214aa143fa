package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestGnmExactCounts(t *testing.T) {
	for _, c := range []struct{ n, m int }{{7, 8}, {10, 23}, {10, 0}, {5, 10}, {30, 300}} {
		g := Gnm(c.n, c.m, 42)
		if g.N() != c.n || g.M() != c.m {
			t.Errorf("Gnm(%d,%d): got n=%d m=%d", c.n, c.m, g.N(), g.M())
		}
	}
}

func TestGnmDeterministic(t *testing.T) {
	a := Gnm(12, 30, 5)
	b := Gnm(12, 30, 5)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if a.HasEdge(u, v) != b.HasEdge(u, v) {
				t.Fatalf("same seed produced different graphs at (%d,%d)", u, v)
			}
		}
	}
	c := Gnm(12, 30, 6)
	same := true
	for u := 0; u < 12 && same; u++ {
		for v := u + 1; v < 12; v++ {
			if a.HasEdge(u, v) != c.HasEdge(u, v) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs (suspicious)")
	}
}

// gnmReference is Gnm as it was before its partial Fisher-Yates moved
// to a sparse swap map: the whole n(n-1)/2-entry pair list is
// materialised. Kept as the reference Gnm's draws must reproduce, since
// benchmark and test instances come from Gnm.
func gnmReference(n, m int, seed int64) *Graph {
	maxM := n * (n - 1) / 2
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]int, maxM)
	for i := range pairs {
		pairs[i] = i
	}
	g := New(n)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(maxM-i)
		pairs[i], pairs[j] = pairs[j], pairs[i]
		u, v := pairFromIndex(pairs[i], n)
		g.AddEdge(u, v)
	}
	return g
}

// Gnm picks exactly the reference's pairs for every n up to 200, edge
// counts across the whole range 0..n(n-1)/2 and several seeds. The
// near-complete counts, the slowest to draw, run on every tenth n.
func TestGnmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for n := 0; n <= 200; n++ {
		maxM := n * (n - 1) / 2
		ms := []int{0, 1, 4 * n, rng.Intn(maxM + 1)}
		if n%10 == 0 || n < 40 {
			ms = append(ms, maxM/2, maxM-1, maxM)
		}
		for _, m := range ms {
			if m < 0 || m > maxM {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				got, want := Gnm(n, m, seed).Edges(), gnmReference(n, m, seed).Edges()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Gnm(%d, %d, %d) drew other edges than the reference", n, m, seed)
				}
			}
		}
	}
}

// Gnm's memory follows m, not n(n-1)/2: ten edges on 5 000 vertices cost
// the dense graph (about 3.4 MB) and little else, where the materialised
// pair list alone took about 100 MB.
func TestGnmAllocationFollowsM(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := Gnm(5000, 10, 1)
	runtime.ReadMemStats(&after)
	if g.M() != 10 {
		t.Fatalf("Gnm(5000, 10, 1) has %d edges", g.M())
	}
	t.Logf("Gnm(5000, 10, 1) allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("Gnm(5000, 10, 1) allocated %.1f MB, want under 8 MB", float64(alloc)/(1<<20))
	}
}

func TestGnmBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gnm with m > max did not panic")
		}
	}()
	Gnm(4, 7, 1)
}

func TestPairFromIndexBijective(t *testing.T) {
	n := 9
	seen := map[[2]int]bool{}
	for idx := 0; idx < n*(n-1)/2; idx++ {
		u, v := pairFromIndex(idx, n)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("pairFromIndex(%d) = (%d,%d) invalid", idx, u, v)
		}
		p := [2]int{u, v}
		if seen[p] {
			t.Fatalf("pair %v produced twice", p)
		}
		seen[p] = true
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("got %d pairs, want %d", len(seen), n*(n-1)/2)
	}
}

func TestGnpEdgeProbability(t *testing.T) {
	g := Gnp(60, 0.3, 3)
	maxM := 60 * 59 / 2
	frac := float64(g.M()) / float64(maxM)
	if frac < 0.22 || frac > 0.38 {
		t.Errorf("Gnp(0.3) realised density %.3f, outside sanity band", frac)
	}
}

func TestPlantedKPlexIsKPlex(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		g, plant := PlantedKPlex(16, 8, k, 0.1, seed)
		return g.IsKPlex(plant, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlantedCommunitiesShape(t *testing.T) {
	g, comm := PlantedCommunities(3, 5, 0.9, 0.05, 4)
	if g.N() != 15 || len(comm) != 15 {
		t.Fatalf("got n=%d len(comm)=%d, want 15", g.N(), len(comm))
	}
	if comm[0] != 0 || comm[5] != 1 || comm[14] != 2 {
		t.Errorf("community assignment wrong: %v", comm)
	}
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if comm[e[0]] == comm[e[1]] {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter {
		t.Errorf("intra=%d not denser than inter=%d", intra, inter)
	}
}

func TestPaperDatasetsRegistry(t *testing.T) {
	for _, name := range AllDatasetNames() {
		d, err := PaperDataset(name)
		if err != nil {
			t.Fatalf("PaperDataset(%q): %v", name, err)
		}
		g := d.Build()
		if g.N() != d.N || g.M() != d.M {
			t.Errorf("%s built n=%d m=%d, want n=%d m=%d", name, g.N(), g.M(), d.N, d.M)
		}
	}
	if _, err := PaperDataset("G_{99,99}"); err == nil {
		t.Error("unknown dataset did not error")
	}
}

func TestChainSweepDatasetDensity(t *testing.T) {
	d := ChainSweepDataset(30)
	if d.N != 30 {
		t.Fatalf("n = %d, want 30", d.N)
	}
	density := float64(d.M) / float64(30*29/2)
	if density < 0.6 || density > 0.7 {
		t.Errorf("density %.3f outside [0.6,0.7]", density)
	}
	g := d.Build()
	if g.M() != d.M {
		t.Errorf("built m=%d, want %d", g.M(), d.M)
	}
}
