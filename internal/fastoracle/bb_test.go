package fastoracle

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/reduce"
)

// branchBound runs BranchBound to completion over g's degeneracy order,
// the order every production caller passes, unless opt names another.
func branchBound(tb testing.TB, e *Evaluator, g *graph.Graph, opt BBOptions) BBResult {
	tb.Helper()
	if opt.Order == nil {
		opt.Order, _ = reduce.DegeneracyOrder(g)
	}
	res, err := e.BranchBound(context.Background(), opt)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// degeneracyOrderReference is the branch order BranchBound used to
// compute for itself: repeated minimum-degree removal (ties by lowest
// index) reconstructed from the complement rows (deg(v) = n-1-cdeg(v)).
// Kept verbatim as the reference reduce.DegeneracyOrder must reproduce.
func (e *Evaluator) degeneracyOrderReference() []int {
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

// The one degeneracy peel in reduce must hand BranchBound exactly the
// order its retired private peel computed, so node counts and witnesses
// are unchanged.
func TestDegeneracyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(150)
		g := graph.Gnp(n, rng.Float64(), rng.Int63())
		e, err := New(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := e.degeneracyOrderReference()
		got, _ := reduce.DegeneracyOrder(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): orders diverge at position %d: %v vs reference %v",
					trial, n, i, got, want)
			}
		}
	}
}

// bruteMax sweeps all 2^n masks for the maximum k-plex size — the ground
// truth BranchBound must reproduce.
func bruteMax(e *Evaluator) int {
	best := 0
	for mask := uint64(0); mask < 1<<uint(e.n); mask++ {
		if s := bits.OnesCount64(mask); s > best && e.KPlexMask(mask) {
			best = s
		}
	}
	return best
}

func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		g := graph.Gnp(n, 0.1+rng.Float64()*0.8, rng.Int63())
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteMax(e)
		res := branchBound(t, e, g, BBOptions{})
		if res.Size != want {
			t.Fatalf("n=%d k=%d: BranchBound=%d, brute force says %d", n, k, res.Size, want)
		}
		if len(res.Set) != res.Size {
			t.Fatalf("n=%d k=%d: |Set|=%d != Size=%d", n, k, len(res.Set), res.Size)
		}
		if !g.IsKPlex(res.Set, k) {
			t.Fatalf("n=%d k=%d: returned set %v is not a %d-plex", n, k, res.Set, k)
		}
	}
}

func TestBranchBoundSeed(t *testing.T) {
	g := graph.Gnm(14, 40, 11)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMax(e)
	// A valid optimal seed: the search must return it (or an equal-size
	// set), never something smaller.
	opt := branchBound(t, e, g, BBOptions{})
	seeded := branchBound(t, e, g, BBOptions{Seed: opt.Set})
	if seeded.Size != want {
		t.Fatalf("optimal seed degraded the answer: %d, want %d", seeded.Size, want)
	}
	// An invalid seed (not a k-plex) is ignored, not trusted.
	bad := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if g.IsKPlex(bad, 2) {
		t.Skip("random instance made the full vertex set a 2-plex; pick a new seed")
	}
	fromBad := branchBound(t, e, g, BBOptions{Seed: bad})
	if fromBad.Size != want {
		t.Fatalf("invalid seed corrupted the answer: %d, want %d", fromBad.Size, want)
	}
	// A stronger incumbent can only prune more: same answer, no more nodes.
	if seeded.Nodes > opt.Nodes {
		t.Fatalf("optimal seed visited more nodes (%d) than unseeded (%d)", seeded.Nodes, opt.Nodes)
	}
}

func TestBranchBoundDeterministic(t *testing.T) {
	g := graph.Gnm(18, 60, 13)
	e, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := branchBound(t, e, g, BBOptions{})
	b := branchBound(t, e, g, BBOptions{})
	if a.Size != b.Size || a.Nodes != b.Nodes || len(a.Set) != len(b.Set) {
		t.Fatalf("two identical runs disagree: %+v vs %+v", a, b)
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			t.Fatalf("two identical runs returned different sets: %v vs %v", a.Set, b.Set)
		}
	}
}

// The multi-word regime: BranchBound past 64 vertices, where no mask
// surface exists at all — the whole point of the compVec representation.
func TestBranchBoundMultiWord(t *testing.T) {
	g := graph.Gnm(80, 240, 17)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := branchBound(t, e, g, BBOptions{})
	if res.Size < 2 {
		t.Fatalf("Size=%d; any adjacent pair (or k singletons) beats this", res.Size)
	}
	if !g.IsKPlex(res.Set, 2) {
		t.Fatalf("returned set %v is not a 2-plex", res.Set)
	}
	if !e.KPlexVec(graph.SubsetVec(res.Set, 80)) {
		t.Fatal("KPlexVec disagrees with IsKPlex on the winner")
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
		if e.KPlexSet(append(append([]int(nil), res.Set...), v)) {
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
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		var base BBResult
		for i, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			res := branchBound(t, e, g, BBOptions{})
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

// A MinSize floor prunes like an incumbent but is never reported as a
// witness: below-floor instances come back with the floor size and an
// empty set, above-floor instances report the true optimum.
func TestBranchBoundMinSize(t *testing.T) {
	g := graph.Gnm(20, 60, 3)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := branchBound(t, e, g, BBOptions{})
	// Floor below the optimum: same answer, no more nodes than unfloored.
	under := branchBound(t, e, g, BBOptions{MinSize: opt.Size - 1})
	if under.Size != opt.Size || !g.IsKPlex(under.Set, 2) {
		t.Fatalf("floor %d changed the answer: %+v vs %+v", opt.Size-1, under, opt)
	}
	if under.Nodes > opt.Nodes {
		t.Fatalf("floor pruned less than no floor: %d > %d nodes", under.Nodes, opt.Nodes)
	}
	// Floor at the optimum: nothing strictly better exists, empty witness.
	at := branchBound(t, e, g, BBOptions{MinSize: opt.Size})
	if at.Size != opt.Size || len(at.Set) != 0 {
		t.Fatalf("floor at the optimum should report (size=%d, empty set), got %+v", opt.Size, at)
	}
}

// An explicit branch order must not change the answer (only the cost),
// and a missing order or a non-permutation must be rejected loudly.
func TestBranchBoundOrderOption(t *testing.T) {
	g := graph.Gnm(24, 90, 5)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := branchBound(t, e, g, BBOptions{}).Size
	rev := make([]int, 24)
	for i := range rev {
		rev[i] = 23 - i
	}
	if got := branchBound(t, e, g, BBOptions{Order: rev}).Size; got != want {
		t.Fatalf("reversed order changed the answer: %d, want %d", got, want)
	}
	for _, order := range [][]int{nil, {0, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Order %v did not panic", order)
				}
			}()
			_, _ = e.BranchBound(context.Background(), BBOptions{Order: order})
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
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		b := newBBState(e)
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
	g := graph.Gnm(96, 380, 21)
	e, err := New(g, 2)
	if err != nil {
		b.Fatal(err)
	}
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
