package fastoracle

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/parallel"
)

// BBResult is the outcome of a BranchBound run. Nodes is the number of
// search-tree nodes visited — a deterministic, machine-independent cost
// measure: the subtree tasks and the wave schedule are fixed by the
// instance and the branch order alone, and the incumbent each task prunes
// against is frozen per wave, so the same instance always produces the
// same count at any worker count.
type BBResult struct {
	Size  int
	Set   []int // sorted members of a maximum k-plex
	Nodes int64
}

// BBOptions tunes a BranchBound run. Order is required; Seed and
// MinSize default to no incumbent and no size floor.
type BBOptions struct {
	// Seed is an optional incumbent witness (e.g. a greedy solution). It
	// is adopted only if it verifies as a k-plex; a stronger incumbent
	// tightens every prune from the first node.
	Seed []int
	// MinSize is an incumbent size floor certified elsewhere (e.g. a
	// bound established on another component of a kernelized instance):
	// the search only reports sets strictly larger. When nothing beats
	// it, Size == MinSize and Set is empty — the caller holds the
	// witness.
	MinSize int
	// Order is the branch order, a permutation of the vertices; anything
	// else, nil included, panics. Callers pass reduce.DegeneracyOrder of
	// the instance (or its restriction to a component): low-core vertices
	// root subtrees that prune immediately, and the dense residue is
	// branched last, when the incumbent is strong.
	Order []int
}

// bbWaveSize is the number of root subtree tasks per wave. The wave
// schedule is part of the result's determinism contract: task boundaries
// and wave boundaries depend only on the instance and the branch order,
// never on the worker count, so the constant trades incumbent freshness
// (small waves re-freeze the bound often) against parallel width (a wave
// is the unit fanned out over the pool). 64 tasks comfortably feeds the
// pool's worker cap while keeping the frozen incumbent at most one wave
// stale.
const bbWaveSize = 64

// BranchBound solves maximum k-plex exactly by deterministic
// branch-and-bound over the multi-word complement rows — the classical
// engine past what the circuit simulator (n ≤ gate cap) or the exhaustive
// Table (n ≤ TableMaxVertices) can sweep. It enumerates k-plexes by the
// hereditary property (every subset of a k-plex is a k-plex, so each
// k-plex is reachable by adding vertices one at a time through k-plex
// intermediates) and prunes with two bounds — the trivial
// |P| + |feasible| and a per-member complement-budget bound (member u
// tolerates at most k-1-cdeg(u) more complement neighbours, so any excess
// complement neighbours of u among the feasible candidates must stay
// out).
//
// The search is decomposed for the worker pool without giving up
// determinism. K-plexes of size ≥ 2 partition by their first two members
// in branch order, so the root frontier splits into one fixed subtree
// task per feasible ordered pair (i, j): task (i,j) owns exactly the
// plexes whose earliest members are order[i] then order[j], branching
// over the candidates after j. Tasks run in fixed waves of bbWaveSize:
// within a wave every task prunes against the same frozen incumbent size,
// and between waves the per-task results merge in task order (first
// strict improvement wins). Which worker runs a task never affects what
// the task computes, so Size, Set and Nodes are bit-identical at any
// REPRO_WORKERS setting — the serial path is simply the same schedule on
// one worker.
//
// Cancellation and deadline are polled once per wave — between waves
// every worker has joined, so stopping there abandons no goroutine and
// splits no task. On cancellation the best incumbent found by the
// completed waves comes back (the same Size/Set/Nodes a serial run
// stopped at that wave would report) alongside an error wrapping
// ctx.Err(); the result is only guaranteed optimal when the error is nil.
func (e *Evaluator) BranchBound(ctx context.Context, opt BBOptions) (BBResult, error) {
	order := opt.Order
	if !validPermutation(order, e.n) {
		panic(fmt.Sprintf("fastoracle: BBOptions.Order is not a permutation of [0,%d)", e.n))
	}
	best := 0
	var bestSet []int
	if len(opt.Seed) > 0 && e.KPlexSet(opt.Seed) {
		best = len(opt.Seed)
		bestSet = append([]int(nil), opt.Seed...)
	}
	if opt.MinSize > best {
		// A size floor without a witness: only strict improvements are
		// reported, so the set empties until something beats the floor.
		best = opt.MinSize
		bestSet = nil
	}
	if best < 1 {
		// Any single vertex is a k-plex (deg 0 ≥ 1-k), so the search over
		// pair-rooted subtrees below only needs to beat size 1.
		best = 1
		bestSet = []int{order[0]}
	}
	nodes := int64(1) // the implicit root node
	tasks := e.rootTasks(order)
	results := make([]bbTaskResult, bbWaveSize)
	finish := func() BBResult {
		out := append([]int(nil), bestSet...)
		sort.Ints(out)
		return BBResult{Size: best, Set: out, Nodes: nodes}
	}
	//ctx:boundary round
	for lo := 0; lo < len(tasks); lo += bbWaveSize {
		if err := ctx.Err(); err != nil {
			return finish(), fmt.Errorf("fastoracle: branch-and-bound canceled after %d of %d root tasks: %w",
				lo, len(tasks), err)
		}
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
					res[t] = s.runTask(order, wave[t], frozen)
				}
			})
		// Chunk-ordered merge: improvements are adopted in task order, so
		// the winning set is the one the serial schedule would keep.
		for _, r := range res {
			nodes += r.nodes
			if r.size > best {
				best, bestSet = r.size, r.set
			}
		}
	}
	return finish(), nil
}

// bbTask roots one subtree of the pair decomposition: positions i < j in
// the branch order are the first two members of every plex the task owns.
type bbTask struct {
	i, j int32
}

// bbTaskResult is what one subtree task reports back for the
// chunk-ordered merge.
type bbTaskResult struct {
	size  int
	set   []int
	nodes int64
}

// rootTasks enumerates the feasible pair roots in lexicographic order of
// their branch-order positions. A pair {u, v} is a k-plex unless the two
// are complement-adjacent (each then carries one complement neighbour)
// and k = 1.
func (e *Evaluator) rootTasks(order []int) []bbTask {
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

// runTask searches the subtree rooted at P = {order[t.i], order[t.j]}
// with candidates order[t.j+1:], pruning against the wave's frozen
// incumbent size. The scratch state is returned balanced (adds undone),
// so one bbState serves every task a worker pulls.
func (b *bbState) runTask(order []int, t bbTask, frozen int) bbTaskResult {
	// Even taking every later candidate cannot beat the incumbent: skip
	// without touching the scratch state.
	if 2+len(order)-1-int(t.j) <= frozen {
		return bbTaskResult{size: frozen}
	}
	b.best = frozen
	b.bestSet = b.bestSet[:0]
	b.nodes = 0
	b.add(order[t.i])
	b.add(order[t.j])
	b.search(order[t.j+1:])
	b.remove(order[t.j])
	b.remove(order[t.i])
	out := bbTaskResult{size: b.best, nodes: b.nodes}
	if len(b.bestSet) > 0 {
		out.set = append([]int(nil), b.bestSet...)
	}
	return out
}

// validPermutation reports whether order is a permutation of [0, n).
func validPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// bbState is the mutable frame of one branch-and-bound (or lazy count)
// worker: the current partial plex P, for every vertex v the running
// complement degree cdeg[v] = |compVec(v) ∩ P|, the membership vector,
// and the saturated-member vector sat — members u with cdeg[u] = k-1,
// whose complement neighbours are exactly the vertices P can no longer
// absorb. Per-depth candidate buffers make a search node allocation-free
// after warm-up.
type bbState struct {
	e       *Evaluator
	pList   []int
	cdeg    []int
	inP     *bitvec.Vector
	sat     *bitvec.Vector
	best    int
	bestSet []int
	nodes   int64
	depth   int
	cands   [][]int
	vecs    []*bitvec.Vector
}

// newBBState returns a clean search frame for e.
func newBBState(e *Evaluator) *bbState {
	return &bbState{
		e:    e,
		cdeg: make([]int, e.n),
		inP:  bitvec.New(e.n),
		sat:  bitvec.New(e.n),
	}
}

// feasible reports whether P ∪ {v} is still a k-plex: v itself must have
// complement budget left, and no saturated member may gain v as a
// complement neighbour. The second half is one early-exit word scan of
// the saturation vector — complement adjacency is symmetric, so
// "compVec[u].Get(v) for some saturated u" is exactly
// "compVec[v] intersects sat".
func (b *bbState) feasible(v int) bool {
	return b.cdeg[v] <= b.e.k-1 && !b.e.compVec[v].Intersects(b.sat)
}

// add appends v to P and maintains cdeg and the saturation vector: every
// complement neighbour of v gains a complement member, and any member
// reaching budget k-1 (v itself included) becomes saturated. v must have
// passed feasible, so no member exceeds the budget.
func (b *bbState) add(v int) {
	b.pList = append(b.pList, v)
	b.inP.Set(v, true)
	k1 := b.e.k - 1
	row := b.e.compVec[v]
	for u := row.NextSet(0); u >= 0; u = row.NextSet(u + 1) {
		b.cdeg[u]++
		if b.cdeg[u] == k1 && b.inP.Get(u) {
			b.sat.Set(u, true)
		}
	}
	if b.cdeg[v] == k1 {
		b.sat.Set(v, true)
	}
}

// remove undoes add: v leaves P, its complement neighbours drop a
// complement member, and members falling below budget k-1 unsaturate.
func (b *bbState) remove(v int) {
	b.pList = b.pList[:len(b.pList)-1]
	b.inP.Set(v, false)
	b.sat.Set(v, false)
	k1 := b.e.k - 1
	row := b.e.compVec[v]
	for u := row.NextSet(0); u >= 0; u = row.NextSet(u + 1) {
		if b.cdeg[u] == k1 {
			b.sat.Set(u, false)
		}
		b.cdeg[u]--
	}
}

// feasibleCands filters cand down to the vertices that still extend P to
// a k-plex, returning the survivors and their membership vector for the
// popcount bound. Both live in per-depth buffers: the slice for depth d
// stays valid while the search recurses at depths > d, and is rewritten
// the next time depth d filters.
func (b *bbState) feasibleCands(cand []int) ([]int, *bitvec.Vector) {
	for len(b.cands) <= b.depth {
		b.cands = append(b.cands, nil)
		b.vecs = append(b.vecs, bitvec.New(b.e.n))
	}
	feas := b.cands[b.depth][:0]
	feasVec := b.vecs[b.depth]
	feasVec.Clear()
	for _, v := range cand {
		if b.feasible(v) {
			feas = append(feas, v)
			feasVec.Set(v, true)
		}
	}
	b.cands[b.depth] = feas
	return feas, feasVec
}

func (b *bbState) search(cand []int) {
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
	// Per-member complement budget: any k-plex S ⊇ P with S\P ⊆ feas has
	// |compVec(u) ∩ S| ≤ k-1 for each u ∈ P, so at least
	// |compVec(u) ∩ feas| - (k-1-cdeg[u]) feasible candidates stay out.
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
	b.search(feas[1:])
	b.remove(v)
	b.search(feas[1:])
	b.depth--
}
