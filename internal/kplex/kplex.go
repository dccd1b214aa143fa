// Package kplex provides the classical side of the reproduction: an exact
// naive O*(2^n) enumerator, a branch-and-search exact solver in the style
// of the paper's BS baseline (Xiao et al. 2017), the exact
// kernelize-then-search entry point BBOpt with its deterministic
// wave-parallel branch-and-bound engine (bb.go), and greedy /
// local-search heuristics used for lower bounds and for seeding
// reductions.
package kplex

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/fastoracle"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
)

// ErrCanceled marks a search cut short by context cancellation or
// deadline expiry. The Result returned alongside it still carries the
// best incumbent the completed waves found — callers keep the witness,
// they just lose the optimality certificate.
var ErrCanceled = errors.New("kplex: search canceled")

// Result is the outcome of an exact search.
type Result struct {
	Set   []int // a maximum k-plex (sorted)
	Size  int
	Nodes int64 // search-tree nodes expanded (BS, BBOpt) or masks scanned (naive)
}

// NaiveMaxVertices is the largest instance Naive scans.
const NaiveMaxVertices = 25

// Naive finds a maximum k-plex by scanning all 2^n subsets. Ground truth
// for tests and tiny instances; refuses n > NaiveMaxVertices. The per-mask check runs
// through the semantic fast-path evaluator — O(|mask|) popcounts over
// packed complement rows instead of a decoded-set IsKPlex walk — but the
// scan order and tie-breaking (lowest qualifying mask per size) are
// exactly those of the original subset sweep.
func Naive(g *graph.Graph, k int) (Result, error) {
	n := g.N()
	if n > NaiveMaxVertices {
		return Result{}, fmt.Errorf("kplex: naive enumeration refuses n=%d > %d", n, NaiveMaxVertices)
	}
	if k < 1 {
		return Result{}, fmt.Errorf("kplex: k=%d must be ≥ 1", k)
	}
	if n == 0 {
		return Result{Nodes: 1}, nil
	}
	// k beyond n never constrains (deg ≥ |S|-k is vacuous), and the
	// evaluator wants k ≤ n.
	kEff := k
	if kEff > n {
		kEff = n
	}
	e, err := fastoracle.New(g, kEff)
	if err != nil {
		return Result{}, fmt.Errorf("kplex: %w", err)
	}
	var bestMask uint64
	bestSize := 0
	var nodes int64
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		nodes++
		if s := bits.OnesCount64(mask); s > bestSize && e.KPlexMask(mask) {
			bestMask, bestSize = mask, s
		}
	}
	return Result{Set: graph.MaskSubset(bestMask, n), Size: bestSize, Nodes: nodes}, nil
}

// bsState carries the branch-and-search context.
type bsState struct {
	g     *graph.Graph
	k     int
	nbrs  [][]int // neighbour lists, so add and remove cost deg(v)
	pList []int   // members of P
	degP  []int   // degree inside P, maintained incrementally
	best  []int
	nodes int64
	depth int
	cands [][]int // per-depth feasible-candidate buffers
}

// BS finds a maximum k-plex with a branch-and-search algorithm in the
// style of the paper's baseline: include/exclude branching on a pivot
// candidate, candidate filtering against the k-plex invariants, the
// trivial |P|+|Cand| bound and the per-vertex support bound
// size ≤ deg_P(u) + |N(u)∩Cand| + k for every u ∈ P. The bookkeeping
// runs over the member list and neighbour lists, so a membership test
// costs O(|P|), an add or remove O(deg(v)), and a search node allocates
// nothing once the per-depth candidate buffers are warm. It shares no
// code with the engine behind BBOpt (bb.go), so it stays an independent
// reference for the exact path.
func BS(g *graph.Graph, k int) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("kplex: k=%d must be ≥ 1", k)
	}
	n := g.N()
	st := &bsState{g: g, k: k, nbrs: make([][]int, n), degP: make([]int, n)}
	for v := range st.nbrs {
		st.nbrs[v] = g.Neighbors(v)
	}
	// Seed the incumbent with a greedy solution so pruning bites early.
	st.best = Greedy(g, k)
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	// High-degree vertices first: likelier members of large plexes.
	sort.Slice(cand, func(a, b int) bool { return g.Degree(cand[a]) > g.Degree(cand[b]) })
	st.search(cand)
	sort.Ints(st.best)
	return Result{Set: st.best, Size: len(st.best), Nodes: st.nodes}, nil
}

// canAdd reports whether P ∪ {v} remains a k-plex.
func (st *bsState) canAdd(v int) bool {
	need := len(st.pList) + 1 - st.k
	// v itself must have enough neighbours in P ∪ {v}.
	if st.degP[v] < need {
		return false
	}
	// Every existing member must tolerate the growth.
	for _, u := range st.pList {
		if st.degP[u] < need && !st.g.HasEdge(u, v) {
			return false
		}
	}
	return true
}

func (st *bsState) add(v int) {
	st.pList = append(st.pList, v)
	for _, u := range st.nbrs[v] {
		st.degP[u]++
	}
}

// remove undoes the latest add, which added v.
func (st *bsState) remove(v int) {
	st.pList = st.pList[:len(st.pList)-1]
	for _, u := range st.nbrs[v] {
		st.degP[u]--
	}
}

func (st *bsState) search(cand []int) {
	st.nodes++
	// Filter candidates down to vertices that can individually join P.
	// The buffer for this depth stays valid while deeper calls run.
	for len(st.cands) <= st.depth {
		st.cands = append(st.cands, nil)
	}
	feasible := st.cands[st.depth][:0]
	for _, v := range cand {
		if st.canAdd(v) {
			feasible = append(feasible, v)
		}
	}
	st.cands[st.depth] = feasible
	// Record the incumbent (sorted once, when the search ends).
	if len(st.pList) > len(st.best) {
		st.best = append(st.best[:0], st.pList...)
	}
	if len(feasible) == 0 {
		return
	}
	// Trivial bound.
	if len(st.pList)+len(feasible) <= len(st.best) {
		return
	}
	// Support bound: any extension S of P satisfies, for each u ∈ P,
	// |S| ≤ deg_S(u) + k ≤ deg_P(u) + |N(u)∩feasible| + k.
	for _, u := range st.pList {
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
	// Branch on the first feasible candidate (already degree-ordered).
	v := feasible[0]
	rest := feasible[1:]
	st.depth++
	// Include branch first: deep dives find large incumbents quickly.
	st.add(v)
	st.search(rest)
	st.remove(v)
	// Exclude branch.
	st.search(rest)
	st.depth--
}

// BBOptions tunes the exact pipeline. The zero value runs it with
// kernelization on and no observability.
type BBOptions struct {
	// Obs carries the observability subsystem: a kplex.bb span over the
	// solve, reduce.peeled / reduce.kernel_n / fastoracle.bb.nodes
	// counters attributing the kernelization and search work (the search
	// counter keeps its fastoracle.bb.nodes name because the service
	// benchmark reads it from /debug/vars). The zero value is inert.
	Obs obs.Obs
	// DisableKernel skips the reduction pass and runs branch-and-bound on
	// the raw graph, searched whole even when the greedy witness already
	// covers it — the A/B baseline for the kernel-shrink benchmarks and
	// the differential tests. Same answers, more nodes.
	DisableKernel bool
}

// BBOpt is the exact classical entry point. It finds a maximum k-plex
// with the kernelize-then-search pipeline: greedy lower bound,
// reduce.Kernelize against it, per-component deterministic wave-parallel
// branch-and-bound (branchBound, bb.go) over the kernel's degeneracy
// order, answers lifted back to original vertex ids. Works at any vertex
// count — the engine needs no mask encoding. Nodes is the summed
// deterministic search cost, identical at any worker count. Cancellation
// and deadline are honoured at wave boundaries of the branch-and-bound;
// on cancellation the best incumbent found so far (never worse than the
// greedy seed) comes back alongside an error wrapping ErrCanceled and
// the context cause.
func BBOpt(ctx context.Context, g *graph.Graph, k int, opt BBOptions) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("kplex: k=%d must be ≥ 1", k)
	}
	n := g.N()
	if n == 0 {
		return Result{Nodes: 1}, nil
	}
	kEff := min(k, n)
	mx := opt.Obs.Metrics
	sp := opt.Obs.Trace.Start("kplex.bb",
		obs.Int("n", n), obs.Int("k", kEff), obs.Bool("kernel", !opt.DisableKernel))
	lb := Greedy(g, kEff)
	best := append([]int(nil), lb...)
	// Emitted on the serial orchestration path (worker-invariant); the
	// service boundary streams it as the first progressive answer.
	sp.Event("kplex.bb.seed", obs.Int("size", len(lb)))
	nodes := int64(1)
	// finish closes the span and accounts the nodes on every exit path —
	// the canceled ones included, so a cut-short run still traces and
	// still hands back its incumbent.
	finish := func(cause error) (Result, error) {
		mx.Add("fastoracle.bb.nodes", nodes)
		sort.Ints(best)
		sp.End(obs.Int("size", len(best)), obs.Int64("nodes", nodes))
		r := Result{Set: best, Size: len(best), Nodes: nodes}
		if cause != nil {
			return r, fmt.Errorf("%w: %w", ErrCanceled, cause)
		}
		return r, nil
	}
	var kern reduce.Kernel
	var parts [][]int
	if opt.DisableKernel {
		// The raw reference is the identity kernel: g itself as the one
		// part, in its own degeneracy order.
		kern = reduce.Kernel{Sub: g, Map: vertices(n)}
		kern.Order, _ = reduce.DegeneracyOrder(g)
		parts = [][]int{kern.Map}
	} else {
		kern = reduce.Kernelize(g, kEff, len(lb))
		mx.Add("reduce.peeled", int64(kern.Stats.Peeled))
		mx.Add("reduce.kernel_n", int64(kern.Stats.N))
		sp.Event("kplex.bb.kernel", obs.Int("kernel_n", kern.Stats.N),
			obs.Int("peeled", kern.Stats.Peeled), obs.Int("components", kern.Stats.Components),
			obs.Int("degeneracy", kern.Stats.Degeneracy), obs.Int("lb", len(lb)))
		// A k-plex of size ≥ 2k-1 is connected, so components may be
		// searched independently exactly when every improvement over the
		// bound is that large; otherwise a disconnected optimum could
		// straddle components and the kernel must be searched whole.
		if len(lb)+1 >= 2*kEff-1 {
			parts = kern.Comps
		} else if kern.Sub.N() > 0 {
			parts = [][]int{vertices(kern.Sub.N())}
		}
	}
	for _, comp := range parts {
		// A part can only improve on the incumbent if it is larger. The
		// raw reference searches its one part regardless, so its node
		// count stays that of a whole-graph search.
		if len(comp) <= len(best) && !opt.DisableKernel {
			continue
		}
		sub, ids := kern.Sub.InducedSubgraph(comp)
		res, cerr := branchBound(ctx, sub, min(kEff, sub.N()), restrictOrder(kern.Order, ids), len(best))
		nodes += res.Nodes
		if res.Size > len(best) {
			// Lift sub ids → kernel ids → original ids.
			lifted := make([]int, len(res.Set))
			for i, v := range res.Set {
				lifted[i] = kern.Map[ids[v]]
			}
			best = lifted
			// Serial merge path: one event per incumbent improvement,
			// deterministic at any worker count.
			sp.Event("kplex.bb.incumbent", obs.Int("size", len(best)))
		}
		if cerr != nil {
			return finish(cerr)
		}
	}
	return finish(nil)
}

// vertices returns the identity list 0..n-1.
func vertices(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// restrictOrder projects a degeneracy order of the kernel onto one
// component's induced subgraph: keep the component's vertices in their
// global removal order, renamed to subgraph ids. Components do not
// interact during minimum-degree removal, so the restriction is itself a
// degeneracy order of the component.
func restrictOrder(order []int, ids []int) []int {
	local := make(map[int]int, len(ids))
	for i, v := range ids {
		local[v] = i
	}
	out := make([]int, 0, len(ids))
	for _, v := range order {
		if i, ok := local[v]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Greedy builds a k-plex by repeated best-candidate insertion from every
// possible seed vertex and returns the largest found. Each step adds the
// feasible non-member with the most neighbours in the set P, the lowest
// index among ties. Deterministic, and bit-identical to the definitional
// rebuild-and-recheck formulation (kept as greedyReference in the tests).
//
// Membership lives in a bitset and induced degrees deg_P are maintained
// incrementally. The feasibility test uses the k-plex growth invariant:
// P ∪ {v} stays a k-plex iff deg_P(v) ≥ |P|+1-k and v is adjacent to
// every member already at its deficiency budget (deg_P(u) = |P|-k), so a
// probe costs O(|critical|) instead of an O(|P|²) IsKPlex rescan.
//
// Only the frontier N(P), the non-members with deg_P > 0, is scored.
// Once |P| ≥ k every feasible candidate has deg_P ≥ 1, so it lies in the
// frontier. While |P| ≤ k-1 no member is critical and every non-member
// is feasible, so any frontier vertex beats every gain-0 vertex; the
// lowest-index non-member is taken only when the frontier is empty. A
// seed resets only the entries it touched, so after one O(n²/64 + m)
// pass collecting neighbour lists a step costs O(|P| + |N(P)|·|critical|)
// plus the added vertex's degree, independent of n.
func Greedy(g *graph.Graph, k int) []int {
	n := g.N()
	nbrs := make([][]int, n)
	for v := range nbrs {
		nbrs[v] = g.Neighbors(v)
	}
	member := bitvec.New(n)
	degS := make([]int, n)
	// touched lists every vertex the current seed raised to deg_P > 0, in
	// first-touch order: the frontier plus members adjacent to P.
	var set, touched, critical, best []int
	add := func(v int) {
		set = append(set, v)
		member.Set(v, true)
		for _, u := range nbrs[v] {
			if degS[u] == 0 {
				touched = append(touched, u)
			}
			degS[u]++
		}
	}
	for seed := 0; seed < n; seed++ {
		set, touched = set[:0], touched[:0]
		add(seed)
		for {
			s := len(set)
			critical = critical[:0]
			for _, u := range set {
				if degS[u] == s-k {
					critical = append(critical, u)
				}
			}
			// degS[v] is exactly InducedDegree(v, set): the insertion gain
			// of the reference formulation. touched is not in index order,
			// so ties are broken on the index explicitly.
			bestV, bestGain := -1, 0
			for _, v := range touched {
				d := degS[v]
				if member.Get(v) || d < s+1-k || d < bestGain || (d == bestGain && v > bestV) {
					continue
				}
				ok := true
				for _, u := range critical {
					if !g.HasEdge(u, v) {
						ok = false
						break
					}
				}
				if ok {
					bestV, bestGain = v, d
				}
			}
			if bestV < 0 && s < k {
				// Empty frontier and no critical member: every non-member
				// is a gain-0 candidate.
				bestV = 0
				for bestV < n && member.Get(bestV) {
					bestV++
				}
				if bestV == n {
					bestV = -1
				}
			}
			if bestV < 0 {
				break
			}
			add(bestV)
		}
		if len(set) > len(best) {
			best = append(best[:0], set...)
		}
		for _, u := range touched {
			degS[u] = 0
		}
		for _, v := range set {
			member.Set(v, false)
		}
	}
	sort.Ints(best)
	return best
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
