package canon

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// permuted returns g relabelled by a seeded random permutation, plus
// the permutation used (perm[old] = new).
func permuted(g *graph.Graph, seed int64) (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.N())
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e[0]], perm[e[1]])
	}
	return out, perm
}

// TestInvariantUnderRelabeling is the cache's core premise: a random
// relabelling of an irregular instance yields byte-identical canonical
// forms, and the two Perms compose into a real isomorphism.
func TestInvariantUnderRelabeling(t *testing.T) {
	cases := []struct{ n, m int }{
		{30, 80}, {60, 150}, {100, 300}, {150, 900},
	}
	for _, tc := range cases {
		g := graph.Gnm(tc.n, tc.m, 7)
		fa := Canonical(g)
		if !fa.Discrete() {
			t.Fatalf("Gnm(%d,%d): refinement left %d cells (want %d); pick a different fixture",
				tc.n, tc.m, fa.Cells, tc.n)
		}
		for seed := int64(1); seed <= 3; seed++ {
			h, _ := permuted(g, seed)
			fb := Canonical(h)
			if fa.Hash != fb.Hash {
				t.Errorf("Gnm(%d,%d) seed %d: hash differs under relabelling", tc.n, tc.m, seed)
			}
			if string(fa.Bytes) != string(fb.Bytes) {
				t.Errorf("Gnm(%d,%d) seed %d: canonical bytes differ under relabelling", tc.n, tc.m, seed)
			}
			// The composed map original->canonical->relabelled must be an
			// isomorphism: edges map to edges, non-edges to non-edges.
			for u := 0; u < g.N(); u++ {
				for v := u + 1; v < g.N(); v++ {
					hu, hv := fb.order[fa.Perm[u]], fb.order[fa.Perm[v]]
					if g.HasEdge(u, v) != h.HasEdge(hu, hv) {
						t.Fatalf("Gnm(%d,%d) seed %d: composed map is not an isomorphism at {%d,%d}",
							tc.n, tc.m, seed, u, v)
					}
				}
			}
		}
	}
}

// TestWitnessTransport pins the cache's witness path: a set mapped with
// Apply on the cached instance and lifted with Lift on the resubmitted
// one lands on the isomorphic image of the original set.
func TestWitnessTransport(t *testing.T) {
	g := graph.Gnm(80, 240, 11)
	h, perm := permuted(g, 5)
	fg, fh := Canonical(g), Canonical(h)
	if fg.Hash != fh.Hash {
		t.Fatal("fixture not invariant; cannot test transport")
	}
	set := []int{3, 17, 42, 61}
	got := fh.Lift(fg.Apply(set))
	want := make(map[int]bool, len(set))
	for _, v := range set {
		want[perm[v]] = true
	}
	if len(got) != len(set) {
		t.Fatalf("transported set has %d members, want %d", len(got), len(set))
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("transported member %d is not the isomorphic image of the original set", v)
		}
	}
}

// TestNoCollisions hashes every checked-in instance plus a family of
// random ones; all must be distinct (these are non-isomorphic by
// construction — different n or m).
func TestNoCollisions(t *testing.T) {
	seen := make(map[string]string)
	add := func(name string, g *graph.Graph) {
		f := Canonical(g)
		if prev, ok := seen[f.Hash]; ok {
			t.Errorf("hash collision between %s and %s", prev, name)
		}
		seen[f.Hash] = name
	}
	files, err := filepath.Glob(filepath.Join("..", "graph", "testdata", "*.clq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/*.clq instances found")
	}
	for _, path := range files {
		g, err := graph.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(path, g)
	}
	for seed := int64(0); seed < 10; seed++ {
		add("gnm50", graph.Gnm(50, 120+int(seed), 21+seed))
	}
	if len(seen) < len(files)+10 {
		t.Errorf("expected %d distinct hashes, got %d", len(files)+10, len(seen))
	}
}

// TestWorkerInvariance pins the parallel signature sweep: the form is
// bit-identical at 1, 2 and 8 workers.
func TestWorkerInvariance(t *testing.T) {
	g := graph.Gnm(120, 400, 3)
	defer parallel.SetWorkers(0)
	var ref *Form
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		f := Canonical(g)
		if ref == nil {
			ref = f
			continue
		}
		if f.Hash != ref.Hash || string(f.Bytes) != string(ref.Bytes) {
			t.Errorf("workers=%d: canonical form differs from workers=1", w)
		}
		for i, p := range f.Perm {
			if p != ref.Perm[i] {
				t.Errorf("workers=%d: Perm[%d] = %d, want %d", w, i, p, ref.Perm[i])
				break
			}
		}
	}
}

// TestEmptyAndTinyGraphs exercises the degenerate paths.
func TestEmptyAndTinyGraphs(t *testing.T) {
	e1 := Canonical(graph.New(0))
	e2 := Canonical(graph.New(0))
	if e1.Hash != e2.Hash || e1.N != 0 {
		t.Error("empty graphs must share one canonical form")
	}
	one := Canonical(graph.New(1))
	if one.Hash == e1.Hash {
		t.Error("K1 and the empty graph must differ")
	}
	// Two labellings of the path P3 (center 0 vs center 2).
	a := graph.New(3)
	a.AddEdge(0, 1)
	a.AddEdge(0, 2)
	b := graph.New(3)
	b.AddEdge(2, 0)
	b.AddEdge(2, 1)
	if Canonical(a).Hash != Canonical(b).Hash {
		t.Error("relabelled P3 must share a canonical form")
	}
}

// TestRegularGraphStaysSound documents the incompleteness boundary: a
// cycle is vertex-transitive, refinement cannot split it, Discrete is
// false — and the daemon's cache then relies on the full-bytes
// comparison, which this test shows still equates isomorphic cycles
// (rotation keeps the adjacency pattern) without claiming discreteness.
func TestRegularGraphStaysSound(t *testing.T) {
	cycle := func(n, shift int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddEdge((i+shift)%n, (i+1+shift)%n)
		}
		return g
	}
	f := Canonical(cycle(8, 0))
	if f.Discrete() {
		t.Error("C8 is vertex-transitive; refinement must not claim discreteness")
	}
	if f.Cells != 1 {
		t.Errorf("C8 has one orbit; got %d cells", f.Cells)
	}
	g := Canonical(cycle(8, 3))
	if f.Hash != g.Hash {
		t.Error("rotated C8 must share the canonical form (identity tie-break preserves the cycle order)")
	}
}

// serializeReference is the pairwise serializer serialize replaced: one
// HasEdge probe per canonical pair, bits shifted in MSB first. Kept
// verbatim as the equivalence target — the canonical bytes are cache
// keys, so serialize must reproduce them bit for bit.
func serializeReference(g *graph.Graph, order []int, m int) []byte {
	n := g.N()
	out := make([]byte, 0, 16+n*n/16)
	out = append(out, "qmkpcanon1"...)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(m))
	var acc byte
	nbits := 0
	for cu := 0; cu < n; cu++ {
		for cv := cu + 1; cv < n; cv++ {
			acc <<= 1
			if g.HasEdge(order[cu], order[cv]) {
				acc |= 1
			}
			nbits++
			if nbits == 8 {
				out = append(out, acc)
				acc, nbits = 0, 0
			}
		}
	}
	if nbits > 0 {
		out = append(out, acc<<(8-nbits))
	}
	return out
}

// TestBytesMatchPairwiseScan pins the edge-driven serializer to the
// pairwise reference on every checked-in instance, on G(n,p) across
// densities (n = 0, 1 and 2 included, and sizes whose bit count is not a
// multiple of 8), and on a sparse planted instance the size of the
// service's sparse workload.
func TestBytesMatchPairwiseScan(t *testing.T) {
	check := func(name string, g *graph.Graph) {
		t.Helper()
		f := Canonical(g)
		if want := serializeReference(g, f.order, g.M()); string(f.Bytes) != string(want) {
			t.Errorf("%s %v: canonical bytes differ from the pairwise scan", name, g)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "graph", "testdata", "*.clq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/*.clq instances found")
	}
	for _, path := range files {
		g, err := graph.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		check(path, g)
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 5, 9, 17, 64, 65, 130} {
		for _, p := range []float64{0, 0.05, 0.3, 0.7, 1} {
			check("gnp", graph.Gnp(n, p, rng.Int63()))
		}
	}
	planted, _ := graph.PlantedKPlex(1000, 20, 2, 5.0/1000, 29)
	check("planted", planted)
}

// TestHashesPinned pins the canonical hashes of the checked-in instances,
// of a sparse planted instance whose refinement stays non-discrete (986
// cells of 1000), and of a cubic graph that refinement cannot split at
// all and whose bytes depend on the index tie-break (its labelling has
// no reflection symmetry). The values were produced by the pairwise
// serializer and the sort-package refinement; a change to the
// refinement, the canonical order or the byte layout moves them.
func TestHashesPinned(t *testing.T) {
	want := map[string]string{
		"gnm100.clq":     "2d6bde5681c9391206a8422bfdc85fb388e47ba311f43cecc31328f4a1fff9c3",
		"gnm200.clq":     "614bed834c534807e5cc92b87c0a93f810b74e804df132eb0b0425d8c9dd25a3",
		"planted150.clq": "8ae086d3aa51fa792ae1558f37de408d497e266493d212f633dc482f53365cbf",
	}
	for name, hash := range want {
		g, err := graph.ReadFile(filepath.Join("..", "graph", "testdata", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := Canonical(g).Hash; got != hash {
			t.Errorf("%s: hash %s, want %s", name, got, hash)
		}
	}
	planted, _ := graph.PlantedKPlex(1000, 20, 2, 5.0/1000, 29)
	f := Canonical(planted)
	if f.Cells != 986 || f.Rounds != 4 {
		t.Errorf("planted: %d cells after %d rounds, want 986 after 4", f.Cells, f.Rounds)
	}
	if want := "4216f0585a21f5a419c81513f4c05a03e6ac4977d1037a9ceecf3620ea3bf889"; f.Hash != want {
		t.Errorf("planted: hash %s, want %s", f.Hash, want)
	}
	cubic := graph.New(10)
	for i := 0; i < 10; i++ {
		cubic.AddEdge(i, (i+1)%10)
	}
	for _, e := range [][2]int{{0, 5}, {1, 3}, {2, 7}, {4, 8}, {6, 9}} {
		cubic.AddEdge(e[0], e[1])
	}
	f = Canonical(cubic)
	if f.Cells != 1 {
		t.Errorf("cubic: %d cells, want 1", f.Cells)
	}
	if want := "dbfc5e42af82dcaba595109e2802a32e19b50946ac87a01cee9e0c194da68908"; f.Hash != want {
		t.Errorf("cubic: hash %s, want %s", f.Hash, want)
	}
}
