package kplex

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/reduce"
)

// branchBoundReference is the engine as it was before the root-task
// bound and the partition bound, kept verbatim as the reference the
// faster search must reproduce: the same wave schedule and frozen
// incumbents, every root task searched from its added pair, and the
// single-member excess bound. Size and Set must match it exactly; Nodes
// may only fall.
func (e *bbGraph) branchBoundReference(order []int, minSize int) Result {
	best := minSize
	var bestSet []int
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
	return Result{Size: best, Set: out, Nodes: nodes}
}

// rootTasks enumerates the feasible pair roots in lexicographic order of
// their branch-order positions, all at once: the task list the engine's
// wave cursor walks. A pair {u, v} is a k-plex unless the two are
// complement-adjacent (each then carries one complement neighbour) and
// k = 1.
func (e *bbGraph) rootTasks(order []int) []bbTask {
	var tasks []bbTask
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			if e.k == 1 && e.compVec[order[i]].Get(order[j]) {
				continue
			}
			tasks = append(tasks, bbTask{i: int32(i), j: int32(j)})
		}
	}
	return tasks
}

// runTaskReference searches one task without a root bound. It shares the
// engine's add and remove for the member list, but reads complement
// degrees and feasibility only from scratch (referenceCdeg,
// referenceFeasible), never from the engine's neighbour counts and
// saturation vector.
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
	feas, feasVec := b.feasibleCandsReference(cand)
	ub := len(b.pList) + len(feas)
	if ub <= b.best {
		return
	}
	for _, u := range b.pList {
		if excess := b.e.compVec[u].AndCount(feasVec) - (b.e.k - 1 - referenceCdeg(b, u)); excess > 0 {
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

// feasibleCandsReference is feasibleCands with referenceFeasible as the
// filter, in the same per-depth buffers.
func (b *bbState) feasibleCandsReference(cand []int) ([]int, *bitvec.Vector) {
	for len(b.cands) <= b.depth {
		b.cands = append(b.cands, nil)
		b.vecs = append(b.vecs, bitvec.New(b.e.n))
	}
	feas := b.cands[b.depth][:0]
	feasVec := b.vecs[b.depth]
	feasVec.Clear()
	for _, v := range cand {
		if referenceFeasible(b, v) {
			feas = append(feas, v)
			feasVec.Set(v, true)
		}
	}
	b.cands[b.depth] = feas
	return feas, feasVec
}

// checkMatchesReference runs branchBound at 1 and 8 workers under four
// size floors (none, two drawn within two of the optimum, and their
// maximum) and holds each run to the reference: equal Size and Set,
// Nodes never above it.
func checkMatchesReference(t *testing.T, name string, g *graph.Graph, k int, rng *rand.Rand) {
	t.Helper()
	e := newBBGraph(g, k)
	order, _ := reduce.DegeneracyOrder(g)
	opt := e.branchBoundReference(order, 0)
	// Floors within two of the optimum, as a greedy witness or a
	// neighbouring component's size would be; a weaker one prunes like
	// none at all.
	lo := max(len(opt.Set)-rng.Intn(3), 0)
	hi := max(opt.Size-rng.Intn(3), 0)
	for _, floor := range []int{0, lo, hi, max(lo, hi)} {
		want := opt
		if floor != 0 {
			want = e.branchBoundReference(order, floor)
		}
		for _, w := range []int{1, 8} {
			prev := parallel.SetWorkers(w)
			got, err := branchBound(context.Background(), g, k, order, floor)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s k=%d floor=%d workers=%d", name, k, floor, w)
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
