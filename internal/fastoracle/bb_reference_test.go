package fastoracle

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/reduce"
)

// branchBoundReference is BranchBound as it was before the root-task
// bound and the partition bound, kept verbatim as the reference the
// faster search must reproduce: the same wave schedule and frozen
// incumbents, every root task searched from its added pair, and the
// single-member excess bound. Size and Set must match it exactly; Nodes
// may only fall.
func (e *Evaluator) branchBoundReference(opt BBOptions) BBResult {
	order := opt.Order
	best := 0
	var bestSet []int
	if len(opt.Seed) > 0 && e.KPlexSet(opt.Seed) {
		best = len(opt.Seed)
		bestSet = append([]int(nil), opt.Seed...)
	}
	if opt.MinSize > best {
		best = opt.MinSize
		bestSet = nil
	}
	if best < 1 {
		best = 1
		bestSet = []int{order[0]}
	}
	nodes := int64(1)
	tasks := e.rootTasks(order)
	results := make([]bbTaskResult, bbWaveSize)
	for lo := 0; lo < len(tasks); lo += bbWaveSize {
		hi := lo + bbWaveSize
		if hi > len(tasks) {
			hi = len(tasks)
		}
		wave := tasks[lo:hi]
		frozen := best
		res := results[:len(wave)]
		parallel.ForScratch(len(wave), 1,
			func() *bbState { return newBBState(e) },
			func(s *bbState, tlo, thi int) {
				for t := tlo; t < thi; t++ {
					res[t] = s.runTaskReference(order, wave[t], frozen)
				}
			})
		for _, r := range res {
			nodes += r.nodes
			if r.size > best {
				best, bestSet = r.size, r.set
			}
		}
	}
	out := append([]int(nil), bestSet...)
	sort.Ints(out)
	return BBResult{Size: best, Set: out, Nodes: nodes}
}

func (b *bbState) runTaskReference(order []int, t bbTask, frozen int) bbTaskResult {
	if 2+len(order)-1-int(t.j) <= frozen {
		return bbTaskResult{size: frozen}
	}
	b.best = frozen
	b.bestSet = b.bestSet[:0]
	b.nodes = 0
	b.add(order[t.i])
	b.add(order[t.j])
	b.searchReference(order[t.j+1:])
	b.remove(order[t.j])
	b.remove(order[t.i])
	out := bbTaskResult{size: b.best, nodes: b.nodes}
	if len(b.bestSet) > 0 {
		out.set = append([]int(nil), b.bestSet...)
	}
	return out
}

func (b *bbState) searchReference(cand []int) {
	b.nodes++
	if len(b.pList) > b.best {
		b.best = len(b.pList)
		b.bestSet = append(b.bestSet[:0], b.pList...)
	}
	feas, feasVec := b.feasibleCands(cand)
	ub := len(b.pList) + len(feas)
	if ub <= b.best {
		return
	}
	for _, u := range b.pList {
		if excess := b.e.compVec[u].AndCount(feasVec) - (b.e.k - 1 - b.cdeg[u]); excess > 0 {
			if bound := len(b.pList) + len(feas) - excess; bound < ub {
				ub = bound
			}
		}
	}
	if ub <= b.best {
		return
	}
	v := feas[0]
	b.depth++
	b.add(v)
	b.searchReference(feas[1:])
	b.remove(v)
	b.searchReference(feas[1:])
	b.depth--
}

// checkMatchesReference runs BranchBound at 1 and 8 workers under four
// incumbent settings (none, a seed witness, a size floor, both) and
// holds each run to the reference: equal Size and Set, Nodes never
// above it.
func checkMatchesReference(t *testing.T, name string, g *graph.Graph, k int, rng *rand.Rand) {
	t.Helper()
	e, err := New(g, k)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := reduce.DegeneracyOrder(g)
	opt := e.branchBoundReference(BBOptions{Order: order})
	// Incumbents within two of the optimum, as a greedy seed or a
	// neighbouring component's size would be; a weaker one prunes like
	// none at all.
	seed := opt.Set[:max(len(opt.Set)-rng.Intn(3), 0)]
	floor := max(opt.Size-rng.Intn(3), 0)
	for _, o := range []BBOptions{
		{Order: order},
		{Order: order, Seed: seed},
		{Order: order, MinSize: floor},
		{Order: order, Seed: seed, MinSize: floor},
	} {
		want := opt
		if o.Seed != nil || o.MinSize != 0 {
			want = e.branchBoundReference(o)
		}
		for _, w := range []int{1, 8} {
			prev := parallel.SetWorkers(w)
			got, err := e.BranchBound(context.Background(), o)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s k=%d seed=%d floor=%d workers=%d", name, k, len(o.Seed), o.MinSize, w)
			if got.Size != want.Size || fmt.Sprint(got.Set) != fmt.Sprint(want.Set) {
				t.Fatalf("%s: got size %d set %v, reference size %d set %v",
					where, got.Size, got.Set, want.Size, want.Set)
			}
			if got.Nodes > want.Nodes {
				t.Fatalf("%s: %d nodes, more than the reference's %d", where, got.Nodes, want.Nodes)
			}
		}
	}
}

// The root-task and partition bounds cut only subtrees that cannot
// strictly beat the incumbent, and the visiting order is unchanged, so
// every answer equals the reference search's. Checked on every
// checked-in instance at k = 1..3 and on 320 random G(n, p) and G(n, m)
// instances with n ≤ 130 at k = 1..4.
func TestBranchBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	files, err := filepath.Glob("../graph/testdata/*.clq")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in instances: %v", err)
	}
	for _, f := range files {
		g, err := graph.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 3; k++ {
			checkMatchesReference(t, filepath.Base(f), g, k, rng)
		}
	}
	for trial := 0; trial < 320; trial++ {
		// One instance in five is past the one-word width. Up to 24
		// vertices any density goes; above that the mean degree falls
		// with k so the reference search stays quick.
		n := 2 + rng.Intn(63)
		if trial%5 == 0 {
			n = 65 + rng.Intn(66)
		}
		k := 1 + trial%4
		p := rng.Float64() * 0.9
		if n > 24 {
			p = (0.5 + rng.Float64()*[]float64{10, 6, 4, 3}[k-1]) / float64(n-1)
		}
		var g *graph.Graph
		var name string
		if trial%2 == 0 {
			g, name = graph.Gnp(n, p, rng.Int63()), fmt.Sprintf("trial %d G(%d, %.3f)", trial, n, p)
		} else {
			m := int(p * float64(n*(n-1)/2))
			g, name = graph.Gnm(n, m, rng.Int63()), fmt.Sprintf("trial %d G(%d, %d)", trial, n, m)
		}
		if k > n {
			k = n
		}
		checkMatchesReference(t, name, g, k, rng)
	}
}
