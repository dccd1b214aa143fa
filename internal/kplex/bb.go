package kplex

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// bbWaveSize is the number of root subtree tasks per wave. The wave
// schedule is part of the result's determinism contract: task boundaries
// and wave boundaries depend only on the instance and the branch order,
// never on the worker count, so the constant trades incumbent freshness
// (small waves re-freeze the bound often) against parallel width (a wave
// is the unit fanned out over the pool). 64 tasks comfortably feeds the
// pool's worker cap while keeping the frozen incumbent at most one wave
// stale.
const bbWaveSize = 64

// bbGraph is the instance as the search reads it: the vertex count, k,
// every vertex's complement row as a natural-order bit vector (bit u set
// iff {v,u} is a complement edge; no self bit), packed into as many words
// as n needs, and every vertex's neighbour list.
type bbGraph struct {
	n, k    int
	compVec []*bitvec.Vector
	nbrs    [][]int
}

// newBBGraph builds the complement rows and neighbour lists of g for plex
// parameter k.
func newBBGraph(g *graph.Graph, k int) *bbGraph {
	n := g.N()
	e := &bbGraph{n: n, k: k, compVec: make([]*bitvec.Vector, n), nbrs: make([][]int, n)}
	for v := 0; v < n; v++ {
		// Complement row = all vertices minus v itself minus g-neighbours.
		nb := g.Neighbors(v)
		row := bitvec.New(n)
		row.SetAll()
		row.Set(v, false)
		for _, u := range nb {
			row.Set(u, false)
		}
		e.compVec[v], e.nbrs[v] = row, nb
	}
	return e
}

// branchBound is the engine behind BBOpt: it solves maximum k-plex on g
// (n ≥ 1, 1 ≤ k ≤ n) exactly by deterministic branch-and-bound over
// multi-word complement rows, at any vertex count. It enumerates
// k-plexes by the hereditary property (every subset of a k-plex is a
// k-plex, so each k-plex is reachable by adding vertices one at a time
// through k-plex intermediates) and prunes with two bounds — the trivial
// |P| + |feasible| and the partition bound of KPLEX (Jiang et al., IJCAI
// 2021): member u tolerates at most k-1-cdeg(u) more complement
// neighbours, so each feasible candidate is charged to one member it is
// not adjacent to, and the excess of every member's group over that
// budget must stay out (see partitionBound).
//
// order is the branch order, a permutation of the vertices; anything
// else panics. BBOpt passes reduce.DegeneracyOrder of the part it
// searches: low-core vertices root subtrees that prune immediately, and
// the dense residue is branched last, when the incumbent is strong.
// minSize is an incumbent size certified elsewhere (the greedy witness
// or an earlier part's answer, which the caller holds): the search only
// reports sets strictly larger. When nothing beats it, Size == minSize
// and Set is empty. Below 1 the floor is a single vertex, which is
// always a k-plex.
//
// The search is decomposed for the worker pool without giving up
// determinism. K-plexes of size ≥ 2 partition by their first two members
// in branch order, so the root frontier splits into one fixed subtree
// task per feasible ordered pair (i, j): task (i,j) owns exactly the
// plexes whose earliest members are order[i] then order[j], branching
// over the candidates after j. Before a task touches any scratch state,
// its root bound is taken with word operations alone (rootBound); a task
// that cannot beat the wave's incumbent costs no search node. Tasks run
// in fixed waves of bbWaveSize, taken from a cursor over the pairs in
// lexicographic order as each wave starts: within a wave every task
// prunes against the same frozen incumbent size, and between waves the
// per-task results merge in task order (first strict improvement wins).
// Which worker runs a task never affects what the task computes, so
// Size, Set and Nodes are bit-identical at any REPRO_WORKERS setting —
// the serial path is simply the same schedule on one worker. Each worker
// keeps one search state for the whole search (parallel.Scratch): a
// state is balanced again after every task, so what it carries over is
// buffer capacity only. Nodes counts the search-tree nodes visited, the
// implicit root included.
//
// Cancellation and deadline are polled once per wave — between waves
// every worker has joined, so stopping there abandons no goroutine and
// splits no task. On cancellation the best incumbent found by the
// completed waves comes back (the same Size/Set/Nodes a serial run
// stopped at that wave would report) alongside an error wrapping
// ctx.Err(); the result is only guaranteed optimal when the error is nil.
func branchBound(ctx context.Context, g *graph.Graph, k int, order []int, minSize int) (Result, error) {
	e := newBBGraph(g, k)
	if !validPermutation(order, e.n) {
		panic(fmt.Sprintf("kplex: branch order is not a permutation of [0,%d)", e.n))
	}
	// A size floor without a witness: only strict improvements are
	// reported, so the set stays empty until something beats the floor.
	best := minSize
	var bestSet []int
	if best < 1 {
		// Any single vertex is a k-plex (deg 0 ≥ 1-k), so the search over
		// pair-rooted subtrees below only needs to beat size 1.
		best = 1
		bestSet = []int{order[0]}
	}
	nodes := int64(1) // the implicit root node
	later := laterSets(order)
	// Every pair is a root task, except that at k = 1 a complement pair
	// is no 1-plex: there the tasks are g's edges.
	total := e.n * (e.n - 1) / 2
	if k == 1 {
		total = g.M()
	}
	finish := func() Result {
		out := append([]int(nil), bestSet...)
		sort.Ints(out)
		return Result{Size: best, Set: out, Nodes: nodes}
	}
	states := parallel.NewScratch(func() *bbState { return newBBState(e) })
	wave := make([]bbTask, 0, bbWaveSize)
	results := make([]bbTaskResult, bbWaveSize)
	var (
		frozen int
		res    []bbTaskResult
	)
	runWave := func(s *bbState, tlo, thi int) {
		for t := tlo; t < thi; t++ {
			s.runTask(&res[t], order, later, wave[t], frozen)
		}
	}
	next, done := bbTask{i: 0, j: 1}, 0
	//ctx:boundary round
	for {
		wave = e.nextWave(order, &next, wave[:0])
		if len(wave) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return finish(), fmt.Errorf("kplex: branch-and-bound canceled after %d of %d root tasks: %w",
				done, total, err)
		}
		frozen = best
		res = results[:len(wave)]
		clear(res)
		states.For(len(wave), 1, runWave)
		// Chunk-ordered merge: improvements are adopted in task order, so
		// the winning set is the one the serial schedule would keep.
		for _, r := range res {
			nodes += r.nodes
			if r.size > best {
				best, bestSet = r.size, r.set
			}
		}
		done += len(wave)
	}
	return finish(), nil
}

// bbTask roots one subtree of the pair decomposition: positions i < j in
// the branch order are the first two members of every plex the task owns.
type bbTask struct {
	i, j int32
}

// bbTaskResult is what one subtree task reports back for the
// chunk-ordered merge. A task its root bound prunes writes nothing, so its
// slot keeps the zero value, which the merge passes over.
type bbTaskResult struct {
	size  int
	set   []int
	nodes int64
}

// nextWave appends to wave the feasible pair roots from the cursor on, in
// lexicographic order of their branch-order positions, until the wave
// holds bbWaveSize tasks or the pairs run out, and advances the cursor
// past them. A pair {u, v} is a k-plex unless the two are
// complement-adjacent (each then carries one complement neighbour) and
// k = 1.
func (e *bbGraph) nextWave(order []int, next *bbTask, wave []bbTask) []bbTask {
	t, n := *next, int32(e.n)
	for len(wave) < bbWaveSize && t.i < n-1 {
		if e.k != 1 || !e.compVec[order[t.i]].Get(order[t.j]) {
			wave = append(wave, t)
		}
		if t.j++; t.j == n {
			t.i++
			t.j = t.i + 1
		}
	}
	*next = t
	return wave
}

// laterSets returns later[j], the set of vertices at branch positions
// after j: the candidate pool of every task whose second member sits at
// position j. n suffix vectors, the size of the complement rows.
func laterSets(order []int) []*bitvec.Vector {
	later := make([]*bitvec.Vector, len(order))
	acc := bitvec.New(len(order))
	for j := len(order) - 1; j >= 0; j-- {
		later[j] = acc.Clone()
		acc.Set(order[j], true)
	}
	return later
}

// runTask searches the subtree rooted at P = {order[t.i], order[t.j]}
// with candidates order[t.j+1:], pruning against the wave's frozen
// incumbent size, and writes what it found to out, a zeroed slot. The
// scratch state is returned balanced (adds undone), so one bbState serves
// every task a worker pulls.
func (b *bbState) runTask(out *bbTaskResult, order []int, later []*bitvec.Vector, t bbTask, frozen int) {
	// Even taking every later candidate cannot beat the incumbent, or the
	// root's own bound cannot: skip without touching the scratch state.
	if 2+len(order)-1-int(t.j) <= frozen ||
		b.rootBound(order[t.i], order[t.j], later[t.j], frozen) <= frozen {
		return
	}
	b.best = frozen
	b.bestSet = b.bestSet[:0]
	b.nodes = 0
	b.add(order[t.i])
	b.add(order[t.j])
	b.search(order[t.j+1:])
	b.remove(order[t.j])
	b.remove(order[t.i])
	out.size, out.nodes = b.best, b.nodes
	if len(b.bestSet) > 0 {
		out.set = append([]int(nil), b.bestSet...)
	}
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

// bbState is the mutable frame of one branch-and-bound worker: the
// current partial plex P, for every vertex x the count adjP[x] =
// |N(x) ∩ P| of its neighbours in P, and the saturated-member vector sat
// — members u with cdeg(u) = k-1, whose complement neighbours are exactly
// the vertices P can no longer absorb. Complement degrees are derived,
// not stored: cdeg(x) = |compVec(x) ∩ P| = |P| - adjP[x] - [x ∈ P].
// Per-depth candidate buffers and the bounds' scratch (root, both, room,
// open) make a search node allocation-free after warm-up.
type bbState struct {
	e       *bbGraph
	pList   []int
	adjP    []int
	sat     *bitvec.Vector
	best    int
	bestSet []int
	nodes   int64
	depth   int
	cands   [][]int
	vecs    []*bitvec.Vector
	root    *bitvec.Vector
	both    *bitvec.Vector
	room    []int
	open    []int
}

// newBBState returns a clean search frame for e.
func newBBState(e *bbGraph) *bbState {
	return &bbState{
		e:    e,
		adjP: make([]int, e.n),
		sat:  bitvec.New(e.n),
		root: bitvec.New(e.n),
		both: bitvec.New(e.n),
	}
}

// memberCdeg returns cdeg(u) for a member u of P.
func (b *bbState) memberCdeg(u int) int {
	return len(b.pList) - 1 - b.adjP[u]
}

// rootBound bounds the subtree rooted at P = {u, v} over pool, the
// vertices after v in branch order, with word operations only. It takes
// the root's exact feasible set F — what feasibleCands would return once
// u and v were added — and returns the partition bound over it. Both
// members carry cdeg c (1 when u and v are complement-adjacent), so a
// candidate's complement degree into P exceeds k-1 only when k = 1 (a
// complement neighbour of u or v) or k = 2 (a complement neighbour of
// both), and a member is saturated only when c = k-1, which drops its
// whole complement row. At k ≥ 3 F is the whole pool.
//
// When both members are saturated (k = 1, or a non-adjacent pair at
// k = 2), F = pool ∩ N(u) ∩ N(v): no candidate left misses a member, so
// the partition bound charges nothing and is exactly 2 + |F|, one fused
// popcount over the three rows.
func (b *bbState) rootBound(u, v int, pool *bitvec.Vector, best int) int {
	e := b.e
	k1 := e.k - 1
	c := 0
	if e.compVec[u].Get(v) {
		c = 1
	}
	if c == k1 {
		return 2 + pool.AndNotOrCount(e.compVec[u], e.compVec[v])
	}
	f := b.root
	f.CopyFrom(pool)
	if k1 == 1 {
		// An adjacent pair at k = 2: a candidate missing both would carry
		// cdeg 2.
		both := b.both
		both.CopyFrom(e.compVec[u])
		both.And(e.compVec[v])
		f.AndNot(both)
	}
	members, room := [2]int{u, v}, [2]int{k1 - c, k1 - c}
	return b.partitionBound(members[:], room[:], f, f.OnesCount(), best)
}

// partitionBound bounds the largest k-plex S ⊇ P with S \ P ⊆ cand, where
// members lists P, room[i] = k-1-cdeg(members[i]) is how many more
// complement neighbours members[i] tolerates, and ncand = |cand|.
// Charge each candidate to at most one member it is not adjacent to: the
// group charged to member u admits at most room(u) of its vertices, so
// its excess |group| - room(u) must stay out, and since the groups are
// disjoint the excesses add up. Candidates adjacent to all of P are
// charged to nobody. Groups are formed greedily, largest excess first
// (ties to the earlier member), each over the candidates no earlier group
// took. The first step subtracts the single largest per-member excess —
// the whole bound when it already reaches best, so a node that bound
// prunes costs nothing extra — and every later step only lowers the
// bound further. The loop stops once the bound reaches best. cand is
// consumed.
func (b *bbState) partitionBound(members, room []int, cand *bitvec.Vector, ncand, best int) int {
	comp := b.e.compVec
	ub := len(members) + ncand
	open := b.open[:0]
	for i := range members {
		open = append(open, i)
	}
	for {
		// Rescore the open members against the candidates still
		// uncharged. cand only shrinks, so a member without excess never
		// regains one and leaves the list.
		top, topEx := -1, 0
		kept := open[:0]
		for _, i := range open {
			ex := comp[members[i]].AndCount(cand) - room[i]
			if ex <= 0 {
				continue
			}
			if ex > topEx {
				top, topEx = len(kept), ex
			}
			kept = append(kept, i)
		}
		open = kept
		if top < 0 {
			break
		}
		ub -= topEx
		if ub <= best || len(open) == 1 {
			break
		}
		cand.AndNot(comp[members[open[top]]])
		open = append(open[:top], open[top+1:]...)
	}
	b.open = open[:0]
	return ub
}

// feasible reports whether P ∪ {v} is still a k-plex, for v outside P:
// v itself must have complement budget left, and no saturated member may
// gain v as a complement neighbour. The second half is one early-exit
// word scan of the saturation vector — complement adjacency is symmetric,
// so "compVec[u].Get(v) for some saturated u" is exactly
// "compVec[v] intersects sat".
func (b *bbState) feasible(v int) bool {
	return len(b.pList)-b.adjP[v] <= b.e.k-1 && !b.e.compVec[v].Intersects(b.sat)
}

// add appends v to P: every neighbour of v gains a neighbour in P, and
// the members' saturation is recomputed, since every member not adjacent
// to v gains a complement member. O(deg v + |P|). v must have passed
// feasible, so no member exceeds the budget.
func (b *bbState) add(v int) {
	b.pList = append(b.pList, v)
	for _, u := range b.e.nbrs[v] {
		b.adjP[u]++
	}
	b.saturate()
}

// remove undoes add: v leaves P and unsaturates, its neighbours lose a
// neighbour in P, and the members' saturation is recomputed.
func (b *bbState) remove(v int) {
	b.pList = b.pList[:len(b.pList)-1]
	b.sat.Set(v, false)
	for _, u := range b.e.nbrs[v] {
		b.adjP[u]--
	}
	b.saturate()
}

// saturate sets sat to the members at complement budget k-1.
func (b *bbState) saturate() {
	k1 := b.e.k - 1
	for _, u := range b.pList {
		b.sat.Set(u, b.memberCdeg(u) == k1)
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
	room := b.room[:0]
	for _, u := range b.pList {
		room = append(room, b.e.k-1-b.memberCdeg(u))
	}
	b.room = room
	if b.partitionBound(b.pList, room, feasVec, len(feas), b.best) <= b.best {
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
