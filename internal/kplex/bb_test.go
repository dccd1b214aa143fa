package kplex

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fastoracle"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/reduce"
)

// solveBB runs branchBound to completion over g's degeneracy order, the
// order BBOpt passes, with size floor minSize.
func solveBB(tb testing.TB, g *graph.Graph, k, minSize int) Result {
	tb.Helper()
	order, _ := reduce.DegeneracyOrder(g)
	res, err := branchBound(context.Background(), g, k, order, minSize)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// degeneracyOrderReference is the branch order the engine used to
// compute for itself: repeated minimum-degree removal (ties by lowest
// index) reconstructed from the complement rows (deg(v) = n-1-cdeg(v)).
// Kept verbatim as the reference reduce.DegeneracyOrder must reproduce.
func (e *bbGraph) degeneracyOrderReference() []int {
	n := e.n
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = n - 1 - e.compVec[v].OnesCount()
	}
	order := make([]int, 0, n)
	for len(order) < n {
		u := -1
		for v := 0; v < n; v++ {
			if !removed[v] && (u < 0 || deg[v] < deg[u]) {
				u = v
			}
		}
		removed[u] = true
		order = append(order, u)
		row := e.compVec[u]
		for v := 0; v < n; v++ {
			if !removed[v] && v != u && !row.Get(v) {
				deg[v]--
			}
		}
	}
	return order
}

// The one degeneracy peel in reduce must hand the engine exactly the
// order its retired private peel computed, so node counts and witnesses
// are unchanged.
func TestDegeneracyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(150)
		g := graph.Gnp(n, rng.Float64(), rng.Int63())
		want := newBBGraph(g, 1).degeneracyOrderReference()
		got, _ := reduce.DegeneracyOrder(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): orders diverge at position %d: %v vs reference %v",
					trial, n, i, got, want)
			}
		}
	}
}

// Naive's exhaustive mask sweep is the ground truth the engine must
// reproduce.
func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		g := graph.Gnp(n, 0.1+rng.Float64()*0.8, rng.Int63())
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		want, err := Naive(g, k)
		if err != nil {
			t.Fatal(err)
		}
		res := solveBB(t, g, k, 0)
		if res.Size != want.Size {
			t.Fatalf("n=%d k=%d: branchBound=%d, brute force says %d", n, k, res.Size, want.Size)
		}
		if len(res.Set) != res.Size {
			t.Fatalf("n=%d k=%d: |Set|=%d != Size=%d", n, k, len(res.Set), res.Size)
		}
		if !g.IsKPlex(res.Set, k) {
			t.Fatalf("n=%d k=%d: returned set %v is not a %d-plex", n, k, res.Set, k)
		}
	}
}

func TestBranchBoundDeterministic(t *testing.T) {
	g := graph.Gnm(18, 60, 13)
	a := solveBB(t, g, 3, 0)
	b := solveBB(t, g, 3, 0)
	if a.Size != b.Size || a.Nodes != b.Nodes || len(a.Set) != len(b.Set) {
		t.Fatalf("two identical runs disagree: %+v vs %+v", a, b)
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			t.Fatalf("two identical runs returned different sets: %v vs %v", a.Set, b.Set)
		}
	}
}

// The multi-word regime: the engine past 64 vertices, where no one-word
// mask exists at all.
func TestBranchBoundMultiWord(t *testing.T) {
	g := graph.Gnm(80, 240, 17)
	res := solveBB(t, g, 2, 0)
	if res.Size < 2 {
		t.Fatalf("Size=%d; any adjacent pair (or k singletons) beats this", res.Size)
	}
	if !g.IsKPlex(res.Set, 2) {
		t.Fatalf("returned set %v is not a 2-plex", res.Set)
	}
	// A maximum k-plex must also be maximal: no vertex extends it.
	in := make(map[int]bool, len(res.Set))
	for _, v := range res.Set {
		in[v] = true
	}
	for v := 0; v < 80; v++ {
		if in[v] {
			continue
		}
		if g.IsKPlex(append(append([]int(nil), res.Set...), v), 2) {
			t.Fatalf("vertex %d extends the reported maximum", v)
		}
	}
}

// The parallel-mode determinism contract: Size, Set and Nodes are
// bit-identical at REPRO_WORKERS = 1, 2 and 8 — the wave schedule and the
// per-wave frozen incumbent depend only on the instance and branch order,
// never on which worker runs a subtree task.
func TestBranchBoundWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(70)
		g := graph.Gnm(n, n*(2+rng.Intn(4)), rng.Int63())
		k := 1 + rng.Intn(3)
		var base Result
		for i, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			res := solveBB(t, g, k, 0)
			parallel.SetWorkers(prev)
			if i == 0 {
				base = res
				continue
			}
			if res.Size != base.Size || res.Nodes != base.Nodes || len(res.Set) != len(base.Set) {
				t.Fatalf("n=%d k=%d: workers=%d diverged: %+v vs %+v", n, k, w, res, base)
			}
			for j := range res.Set {
				if res.Set[j] != base.Set[j] {
					t.Fatalf("n=%d k=%d: workers=%d returned set %v, workers=1 returned %v",
						n, k, w, res.Set, base.Set)
				}
			}
		}
	}
}

// A minSize floor prunes like an incumbent but is never reported as a
// witness: below-floor instances come back with the floor size and an
// empty set, above-floor instances report the true optimum.
func TestBranchBoundMinSize(t *testing.T) {
	g := graph.Gnm(20, 60, 3)
	opt := solveBB(t, g, 2, 0)
	// Floor below the optimum: same answer, no more nodes than unfloored.
	under := solveBB(t, g, 2, opt.Size-1)
	if under.Size != opt.Size || !g.IsKPlex(under.Set, 2) {
		t.Fatalf("floor %d changed the answer: %+v vs %+v", opt.Size-1, under, opt)
	}
	if under.Nodes > opt.Nodes {
		t.Fatalf("floor pruned less than no floor: %d > %d nodes", under.Nodes, opt.Nodes)
	}
	// Floor at the optimum: nothing strictly better exists, empty witness.
	at := solveBB(t, g, 2, opt.Size)
	if at.Size != opt.Size || len(at.Set) != 0 {
		t.Fatalf("floor at the optimum should report (size=%d, empty set), got %+v", opt.Size, at)
	}
}

// The engine's incumbent is a seed witness passed as its size: BBOpt
// hands it the greedy witness's size and keeps the witness itself. An
// optimal seed must keep the answer, a stronger seed can only prune
// more, and the greedy seed through BBOpt never degrades the optimum.
func TestBranchBoundSeed(t *testing.T) {
	g := graph.Gnm(14, 40, 11)
	want, err := Naive(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := solveBB(t, g, 2, 0)
	if opt.Size != want.Size {
		t.Fatalf("unseeded search found %d, brute force says %d", opt.Size, want.Size)
	}
	prev := opt
	for seed := 1; seed <= want.Size; seed++ {
		res := solveBB(t, g, 2, seed)
		if res.Size != want.Size {
			t.Fatalf("seed of size %d degraded the answer: %d, want %d", seed, res.Size, want.Size)
		}
		if res.Nodes > prev.Nodes {
			t.Fatalf("seed of size %d visited more nodes (%d) than size %d (%d)",
				seed, res.Nodes, seed-1, prev.Nodes)
		}
		prev = res
	}
	// The optimal seed leaves nothing strictly better: the engine reports
	// the seed's size with an empty set, so the caller's witness stands.
	if len(prev.Set) != 0 {
		t.Fatalf("optimal seed should leave the witness to the caller, got %v", prev.Set)
	}
	res, err := BBOpt(context.Background(), g, 2, BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != want.Size || len(res.Set) != res.Size || !g.IsKPlex(res.Set, 2) {
		t.Fatalf("greedy-seeded BBOpt returned %+v, want a %d-vertex 2-plex", res, want.Size)
	}
}

// An explicit branch order must not change the answer (only the cost),
// and a missing order or a non-permutation must be rejected loudly.
func TestBranchBoundOrderOption(t *testing.T) {
	g := graph.Gnm(24, 90, 5)
	want := solveBB(t, g, 2, 0).Size
	rev := make([]int, 24)
	for i := range rev {
		rev[i] = 23 - i
	}
	got, err := branchBound(context.Background(), g, 2, rev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want {
		t.Fatalf("reversed order changed the answer: %d, want %d", got.Size, want)
	}
	for _, order := range [][]int{nil, {0, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v did not panic", order)
				}
			}()
			_, _ = branchBound(context.Background(), g, 2, order, 0)
		}()
	}
}

// referenceFeasible is the pre-rewrite O(|P|) feasibility probe — a scan
// of the member list against each member's saturation — kept here as the
// semantic model for the incrementally maintained saturated-member
// bitvec, and as the baseline of the benchmark pair below.
func referenceFeasible(b *bbState, v int) bool {
	if b.cdeg[v] > b.e.k-1 {
		return false
	}
	for _, u := range b.pList {
		if b.cdeg[u] == b.e.k-1 && b.e.compVec[u].Get(v) {
			return false
		}
	}
	return true
}

// The incremental saturation vector must answer every probe exactly like
// the member-list rescan, at every prefix of a growing plex.
func TestFeasibleMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		g := graph.Gnm(n, n*2, rng.Int63())
		k := 1 + rng.Intn(3)
		b := newBBState(newBBGraph(g, k))
		for step := 0; step < n; step++ {
			for v := 0; v < n; v++ {
				if b.inP.Get(v) {
					continue
				}
				if got, want := b.feasible(v), referenceFeasible(b, v); got != want {
					t.Fatalf("n=%d k=%d |P|=%d v=%d: bitvec says %v, reference scan says %v",
						n, k, len(b.pList), v, got, want)
				}
			}
			grew := false
			for v := 0; v < n; v++ {
				if !b.inP.Get(v) && b.feasible(v) {
					b.add(v)
					grew = true
					break
				}
			}
			if !grew {
				break
			}
		}
	}
}

// The satellite micro-fix benchmark pair (serial path, independent of the
// parallel mode): probe feasibility for every vertex against a grown
// plex, via the old member-list rescan vs the saturated-member bitvec.
// benchjson pairs the reference/bitset variants into a speedup entry.
func BenchmarkBBFeasible(b *testing.B) {
	e := newBBGraph(graph.Gnm(96, 380, 21), 2)
	st := newBBState(e)
	// Grow a maximal plex so the member list (and its saturated subset)
	// is as large as the instance allows.
	for {
		grew := false
		for v := 0; v < e.n; v++ {
			if !st.inP.Get(v) && st.feasible(v) {
				st.add(v)
				grew = true
				break
			}
		}
		if !grew {
			break
		}
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < e.n; v++ {
				referenceFeasible(st, v)
			}
		}
	})
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < e.n; v++ {
				st.feasible(v)
			}
		}
	})
}

// BenchmarkStoreCrossover times the two ways of answering "what is the
// maximum k-plex size" as n grows: the gate path's exhaustive
// fastoracle Table sweep (2^n semantic evaluations, parallel) against
// branch-and-bound (pruned search). The Table wins only while 2^n is
// small; it stays the gate path's cache because one sweep serves every
// probe of a request, while a single maximum query is cheaper by search.
func BenchmarkStoreCrossover(b *testing.B) {
	for _, n := range []int{12, 16, 20, 24} {
		g := graph.Gnm(n, 3*n, 21)
		e, err := fastoracle.New(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		want := solveBB(b, g, 2, 0).Size
		b.Run(fmt.Sprintf("table/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, terr := e.Table()
				if terr != nil {
					b.Fatal(terr)
				}
				if tab.MaxPlexSize() != want {
					b.Fatal("table disagrees with branch-and-bound")
				}
			}
		})
		b.Run(fmt.Sprintf("bb/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if solveBB(b, g, 2, 0).Size != want {
					b.Fatal("branch-and-bound became inconsistent")
				}
			}
		})
	}
	// Past the one-word wall only the branch-and-bound exists.
	g := graph.Gnm(100, 300, 7)
	b.Run("bb/n=100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if solveBB(b, g, 2, 0).Size < 2 {
				b.Fatal("implausible maximum on the 100-vertex instance")
			}
		}
	})
}
