package kplex

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/graph"
)

// bsRefState and bsReference are BS as it was before its bookkeeping
// moved to member and neighbour lists: every membership test, add,
// remove and support bound scans all n vertices with HasEdge. Kept
// verbatim as the reference BS must reproduce node for node.
type bsRefState struct {
	g     *graph.Graph
	k     int
	n     int
	inP   []bool
	degP  []int
	pSize int
	best  []int
	nodes int64
}

func bsReference(g *graph.Graph, k int) Result {
	n := g.N()
	st := &bsRefState{g: g, k: k, n: n, inP: make([]bool, n), degP: make([]int, n)}
	st.best = Greedy(g, k)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	sort.Slice(cand, func(a, b int) bool { return g.Degree(cand[a]) > g.Degree(cand[b]) })
	st.search(cand)
	sort.Ints(st.best)
	return Result{Set: st.best, Size: len(st.best), Nodes: st.nodes}
}

func (st *bsRefState) canAdd(v int) bool {
	if st.degP[v] < st.pSize+1-st.k {
		return false
	}
	for u := 0; u < st.n; u++ {
		if st.inP[u] && !st.g.HasEdge(u, v) && st.degP[u] < st.pSize+1-st.k {
			return false
		}
	}
	return true
}

func (st *bsRefState) add(v int) {
	st.inP[v] = true
	st.pSize++
	for u := 0; u < st.n; u++ {
		if st.g.HasEdge(u, v) {
			st.degP[u]++
		}
	}
}

func (st *bsRefState) remove(v int) {
	st.inP[v] = false
	st.pSize--
	for u := 0; u < st.n; u++ {
		if st.g.HasEdge(u, v) {
			st.degP[u]--
		}
	}
}

func (st *bsRefState) search(cand []int) {
	st.nodes++
	feasible := cand[:0:0]
	for _, v := range cand {
		if st.canAdd(v) {
			feasible = append(feasible, v)
		}
	}
	if st.pSize > len(st.best) {
		st.best = st.best[:0]
		for v := 0; v < st.n; v++ {
			if st.inP[v] {
				st.best = append(st.best, v)
			}
		}
	}
	if len(feasible) == 0 {
		return
	}
	if st.pSize+len(feasible) <= len(st.best) {
		return
	}
	for u := 0; u < st.n; u++ {
		if !st.inP[u] {
			continue
		}
		support := st.degP[u] + st.k
		for _, v := range feasible {
			if st.g.HasEdge(u, v) {
				support++
			}
		}
		if support <= len(st.best) {
			return
		}
	}
	v := feasible[0]
	rest := feasible[1:]
	st.add(v)
	st.search(rest)
	st.remove(v)
	st.search(rest)
}

// checkBSMatchesReference holds BS to the reference: equal Set, Size and
// Nodes.
func checkBSMatchesReference(t *testing.T, name string, g *graph.Graph, k int) {
	t.Helper()
	got, err := BS(g, k)
	if err != nil {
		t.Fatal(err)
	}
	want := bsReference(g, k)
	if got.Size != want.Size || got.Nodes != want.Nodes || fmt.Sprint(got.Set) != fmt.Sprint(want.Set) {
		t.Fatalf("%s k=%d: BS size %d nodes %d set %v, reference size %d nodes %d set %v",
			name, k, got.Size, got.Nodes, got.Set, want.Size, want.Nodes, want.Set)
	}
}

// BS's bookkeeping moved to member and neighbour lists; its search,
// filters and bounds did not, so it visits exactly the reference's tree.
// Checked on the checked-in instances up to the largest k the reference
// finishes in about a second (it needs about 25 s for gnm200 at k = 3,
// and minutes at k = 4), and on 240 random G(n, p) and G(n, m)
// instances at k = 1..4: any density up to 28 vertices, at most 2n
// edges up to 120.
func TestBSMatchesReference(t *testing.T) {
	for _, c := range []struct {
		file string
		maxK int
	}{{"gnm100.clq", 3}, {"gnm200.clq", 2}, {"planted150.clq", 3}} {
		g, err := graph.ReadFile(filepath.Join("../graph/testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= c.maxK; k++ {
			checkBSMatchesReference(t, c.file, g, k)
		}
	}
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(28)
		k := 1 + trial%4
		maxM := n * (n - 1) / 2
		if trial%5 == 0 {
			n = 29 + rng.Intn(92)
			maxM = 2 * n
		}
		if trial%2 == 0 {
			p := rng.Float64() * float64(maxM) / float64(n*(n-1)/2)
			checkBSMatchesReference(t, fmt.Sprintf("trial %d G(%d, %.3f)", trial, n, p), graph.Gnp(n, p, rng.Int63()), k)
		} else {
			m := rng.Intn(maxM + 1)
			checkBSMatchesReference(t, fmt.Sprintf("trial %d G(%d, %d)", trial, n, m), graph.Gnm(n, m, rng.Int63()), k)
		}
	}
}
