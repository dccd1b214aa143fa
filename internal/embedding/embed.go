package embedding

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/qubo"
)

// Embedding maps each logical variable to a connected chain of physical
// qubits.
type Embedding struct {
	Chains [][]int // Chains[v] = physical qubits representing variable v
	hw     *Hardware
}

// Stats summarises an embedding — the Fig. 13 quantities.
type Stats struct {
	Variables      int
	PhysicalQubits int
	AvgChain       float64
	MaxChain       int
}

// Stats computes the chain statistics.
func (e *Embedding) Stats() Stats {
	s := Stats{Variables: len(e.Chains)}
	for _, ch := range e.Chains {
		s.PhysicalQubits += len(ch)
		if len(ch) > s.MaxChain {
			s.MaxChain = len(ch)
		}
	}
	if s.Variables > 0 {
		s.AvgChain = float64(s.PhysicalQubits) / float64(s.Variables)
	}
	return s
}

// Embed finds a minor embedding of the model's interaction graph into the
// hardware with the Cai–Macready–Roy heuristic the paper cites: chains are
// routed through weighted shortest paths where a qubit's cost grows
// exponentially with how many other chains already occupy it; rip-up and
// re-route passes with escalating penalties then drive the overlap to
// zero. Returns an error if no overlap-free embedding is found — callers
// retry on larger hardware.
func Embed(m *qubo.Model, hw *Hardware, seed int64) (*Embedding, error) {
	const restarts = 2
	var lastErr error
	for attempt := 0; attempt < restarts; attempt++ {
		e, err := embedOnce(m, hw, seed+int64(attempt))
		if err == nil {
			return e, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("embedding: all %d attempts failed, last: %w", restarts, lastErr)
}

// cmrVariableLimit bounds the heuristic router: beyond this many logical
// variables the CMR passes converge too slowly on a single core, so
// EmbedOnHardware goes straight to the deterministic clique embedding (the
// standard practice for dense problems on real annealers).
const cmrVariableLimit = 120

// EmbedOnHardware embeds the model into Chimera-class hardware (degree-10
// cells, the Advantage-class connectivity of DESIGN.md): the CMR heuristic
// on the smallest grid that accepts it, falling back to the deterministic
// TRIAD clique embedding for large or stubbornly dense models.
func EmbedOnHardware(m *qubo.Model, seed int64) (*Embedding, *Hardware, error) {
	const cell = 8
	if m.N() <= cmrVariableLimit {
		for _, size := range []int{3, 4, 6, 8, 12, 16} {
			hw := Chimera(size, cell)
			// Need headroom over one qubit per variable; tight grids
			// are tried first because they yield the shortest chains
			// (and fail fast when too tight).
			if hw.N < 2*m.N() {
				continue
			}
			if emb, err := Embed(m, hw, seed); err == nil {
				return emb, hw, nil
			}
		}
	}
	grid := CliqueGridFor(m.N(), cell)
	hw := Chimera(grid, cell)
	emb, err := CliqueEmbed(m.N(), hw)
	if err != nil {
		return nil, nil, fmt.Errorf("embedding: model with %d variables does not embed: %w", m.N(), err)
	}
	return emb, hw, nil
}

// cmrState carries the router's working data.
type cmrState struct {
	hw      *Hardware
	nv      int
	logAdj  [][]int
	chains  [][]int // current chain per variable (nil if unplaced)
	load    []int   // physical qubit -> number of chains through it
	penalty float64 // overlap penalty base for this pass
	noise   []float64
}

func embedOnce(m *qubo.Model, hw *Hardware, seed int64) (*Embedding, error) {
	nv := m.N()
	st := &cmrState{
		hw:     hw,
		nv:     nv,
		logAdj: make([][]int, nv),
		chains: make([][]int, nv),
		load:   make([]int, hw.N),
	}
	for _, pair := range m.Interactions() {
		st.logAdj[pair[0]] = append(st.logAdj[pair[0]], pair[1])
		st.logAdj[pair[1]] = append(st.logAdj[pair[1]], pair[0])
	}
	order := make([]int, nv)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(nv, func(a, b int) { order[a], order[b] = order[b], order[a] })
	sort.SliceStable(order, func(a, b int) bool {
		return len(st.logAdj[order[a]]) > len(st.logAdj[order[b]])
	})

	const maxPasses = 14
	st.noise = make([]float64, hw.N)
	prevContested, stale := hw.N+1, 0
	for pass := 0; pass < maxPasses; pass++ {
		st.penalty = math.Pow(10, float64(pass+1))
		if st.penalty > 1e9 {
			st.penalty = 1e9
		}
		// Fresh multiplicative cost noise each pass breaks the symmetric
		// tug-of-war two chains can otherwise fall into.
		for q := range st.noise {
			st.noise[q] = 1 + 0.05*rng.Float64()
		}
		if pass > 0 {
			rng.Shuffle(nv, func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		for _, v := range order {
			if pass > 0 && !st.contested(v) {
				continue // only rip-and-reroute chains involved in overlaps
			}
			st.rip(v)
			if err := st.route(v, rng); err != nil {
				return nil, err
			}
		}
		st.trim()
		if st.maxLoad() <= 1 {
			st.improve(order, rng)
			return &Embedding{Chains: st.chains, hw: hw}, nil
		}
		// Stagnation abort: when the overlap count stops shrinking the
		// grid is almost certainly too small — fail fast so the caller
		// can grow the hardware.
		contested := 0
		for _, l := range st.load {
			if l > 1 {
				contested++
			}
		}
		if contested >= prevContested {
			stale++
			if stale >= 3 {
				return nil, fmt.Errorf("stuck with %d contested qubits after %d passes", contested, pass+1)
			}
		} else {
			stale = 0
		}
		prevContested = contested
	}
	return nil, fmt.Errorf("overlaps remain after %d passes (max load %d)", maxPasses, st.maxLoad())
}

func (st *cmrState) maxLoad() int {
	m := 0
	for _, l := range st.load {
		if l > m {
			m = l
		}
	}
	return m
}

// improve runs extra rip-and-reroute rounds once the embedding is valid:
// with every other chain settled and the overlap penalty high, each
// reroute finds a (near-)shortest connection through the free space,
// shrinking the chains the untangling passes left bloated. A reroute is
// kept only when it does not grow the chain.
func (st *cmrState) improve(order []int, rng *rand.Rand) {
	st.penalty = 1e9
	for round := 0; round < 2; round++ {
		for _, v := range order {
			old := st.chains[v]
			st.rip(v)
			if err := st.route(v, rng); err != nil || len(st.chains[v]) > len(old) || st.maxLoad() > 1 {
				// Revert: the reroute failed, grew the chain, or stole
				// occupied qubits.
				st.rip(v)
				st.claim(v, old)
			}
		}
		st.trim()
	}
}

// contested reports whether any qubit of v's chain is shared.
func (st *cmrState) contested(v int) bool {
	for _, q := range st.chains[v] {
		if st.load[q] > 1 {
			return true
		}
	}
	return false
}

// rip removes variable v's chain from the load map.
func (st *cmrState) rip(v int) {
	for _, q := range st.chains[v] {
		st.load[q]--
	}
	st.chains[v] = nil
}

// qubitCost is the routing cost of occupying qubit q: exponential in its
// current load so crowded qubits are avoided, and overwhelming once the
// penalty escalates.
func (st *cmrState) qubitCost(q int) float64 {
	return st.noise[q] * math.Pow(st.penalty, float64(st.load[q]))
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	q    int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}

// dijkstraFromChain returns the cheapest path cost from anchor chain to
// every qubit (cost of a path = sum of qubitCost over its qubits,
// excluding the anchor chain itself) and the predecessor map.
func (st *cmrState) dijkstraFromChain(chain []int) ([]float64, []int) {
	dist := make([]float64, st.hw.N)
	parent := make([]int, st.hw.N)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	var h pq
	inChain := make(map[int]bool, len(chain))
	for _, q := range chain {
		inChain[q] = true
	}
	for _, q := range chain {
		for _, nb := range st.hw.Neighbors(q) {
			if inChain[nb] {
				continue
			}
			c := st.qubitCost(nb)
			if c < dist[nb] {
				dist[nb] = c
				parent[nb] = q
				heap.Push(&h, pqItem{q: nb, dist: c})
			}
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if it.dist > dist[it.q] {
			continue
		}
		for _, nb := range st.hw.Neighbors(it.q) {
			if inChain[nb] {
				continue
			}
			nd := it.dist + st.qubitCost(nb)
			if nd < dist[nb] {
				dist[nb] = nd
				parent[nb] = it.q
				heap.Push(&h, pqItem{q: nb, dist: nd})
			}
		}
	}
	return dist, parent
}

// dijkstraFromRoot computes cheapest path costs from a single root qubit;
// dist[q] is the cost of the path's qubits excluding the root itself.
func (st *cmrState) dijkstraFromRoot(root int) ([]float64, []int) {
	dist := make([]float64, st.hw.N)
	parent := make([]int, st.hw.N)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[root] = 0
	var h pq
	heap.Push(&h, pqItem{q: root, dist: 0})
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if it.dist > dist[it.q] {
			continue
		}
		for _, nb := range st.hw.Neighbors(it.q) {
			nd := it.dist + st.qubitCost(nb)
			if nd < dist[nb] {
				dist[nb] = nd
				parent[nb] = it.q
				heap.Push(&h, pqItem{q: nb, dist: nd})
			}
		}
	}
	return dist, parent
}

// route places variable v: pick the root minimizing the summed path costs
// to all placed neighbour chains, then claim the union of those paths.
func (st *cmrState) route(v int, rng *rand.Rand) error {
	var anchors [][]int
	for _, u := range st.logAdj[v] {
		if st.chains[u] != nil {
			anchors = append(anchors, st.chains[u])
		}
	}
	if len(anchors) == 0 {
		// Fresh seed: cheapest qubit, ties broken randomly.
		best, bestC := -1, math.Inf(1)
		cnt := 0
		for q := 0; q < st.hw.N; q++ {
			c := st.qubitCost(q)
			if c < bestC {
				best, bestC, cnt = q, c, 1
			} else if c == bestC { //lint:allow floatcmp exact tie detection feeding the seeded reservoir tie-break; a tolerance would misclassify near-ties
				cnt++
				if rng.Intn(cnt) == 0 {
					best = q
				}
			}
		}
		if best < 0 {
			return fmt.Errorf("no qubits available")
		}
		st.claim(v, []int{best})
		return nil
	}

	// Root selection scans distance fields from a bounded sample of
	// anchors (scanning all of them is the router's hot spot; a sample
	// picks nearly as good a root at a fraction of the cost).
	const rootSample = 6
	sel := anchors
	if len(sel) > rootSample {
		perm := rng.Perm(len(anchors))
		sel = make([][]int, rootSample)
		for i := 0; i < rootSample; i++ {
			sel[i] = anchors[perm[i]]
		}
	}
	dists := make([][]float64, len(sel))
	for i, ch := range sel {
		dists[i], _ = st.dijkstraFromChain(ch)
	}
	bestRoot, bestCost := -1, math.Inf(1)
	for q := 0; q < st.hw.N; q++ {
		cost := 0.0
		ok := true
		for i := range sel {
			if math.IsInf(dists[i][q], 1) {
				ok = false
				break
			}
			cost += dists[i][q]
		}
		// Root counted once in each path; compensate so it is charged
		// exactly once.
		cost -= float64(len(sel)-1) * st.qubitCost(q)
		if ok && cost < bestCost {
			bestRoot, bestCost = q, cost
		}
	}
	if bestRoot < 0 {
		return fmt.Errorf("variable %d: no root reaches %d anchor chains", v, len(sel))
	}
	// One Dijkstra from the root now routes a path to EVERY anchor: for
	// each anchor chain, pick its cheapest adjacent qubit and walk the
	// predecessor tree back to the root.
	rdist, rparent := st.dijkstraFromRoot(bestRoot)
	chain := map[int]bool{bestRoot: true}
	for _, ch := range anchors {
		exit, exitCost := -1, math.Inf(1)
		for _, aq := range ch {
			for _, nb := range st.hw.Neighbors(aq) {
				if rdist[nb] < exitCost {
					exit, exitCost = nb, rdist[nb]
				}
			}
		}
		if exit < 0 {
			return fmt.Errorf("variable %d: root %d cannot reach an anchor chain", v, bestRoot)
		}
		for q := exit; q != bestRoot && q != -1; q = rparent[q] {
			chain[q] = true
		}
	}
	list := make([]int, 0, len(chain))
	for q := range chain {
		list = append(list, q)
	}
	sort.Ints(list)
	st.claim(v, list)
	return nil
}

func (st *cmrState) claim(v int, chain []int) {
	st.chains[v] = chain
	for _, q := range chain {
		st.load[q]++
	}
}

// trim shrinks every chain by repeatedly dropping leaf qubits (degree ≤ 1
// in the chain's induced subgraph) that are not needed to keep any logical
// coupler covered. The union-of-paths router overshoots; trimming brings
// chain sizes down to what the adjacency actually requires.
func (st *cmrState) trim() {
	for v := range st.chains {
		if len(st.chains[v]) <= 1 {
			continue
		}
		changed := true
		for changed {
			changed = false
			chain := st.chains[v]
			inChain := make(map[int]bool, len(chain))
			for _, q := range chain {
				inChain[q] = true
			}
			for idx, q := range chain {
				// Leaf check within the chain subgraph.
				deg := 0
				for _, nb := range st.hw.Neighbors(q) {
					if inChain[nb] {
						deg++
					}
				}
				if deg > 1 {
					continue
				}
				if !st.removableFrom(v, q, inChain) {
					continue
				}
				st.load[q]--
				st.chains[v] = append(chain[:idx:idx], chain[idx+1:]...)
				changed = true
				break
			}
		}
	}
}

// removableFrom reports whether dropping qubit q from variable v's chain
// keeps every placed logical neighbour's chain adjacent to what remains.
func (st *cmrState) removableFrom(v, q int, inChain map[int]bool) bool {
	for _, u := range st.logAdj[v] {
		if st.chains[u] == nil {
			continue
		}
		// Does some other qubit of v's chain touch u's chain?
		touched := false
		for _, uq := range st.chains[u] {
			for _, nb := range st.hw.Neighbors(uq) {
				if nb != q && inChain[nb] {
					touched = true
					break
				}
			}
			if touched {
				break
			}
		}
		if !touched {
			return false
		}
	}
	return true
}

const unreachable = int(^uint(0) >> 1)

// Validate checks the two embedding invariants the paper states: each
// chain is connected (so its qubits can be forced to agree), and every
// logical interaction has at least one physical coupler between the two
// chains.
func (e *Embedding) Validate(m *qubo.Model) error {
	seenOwner := make(map[int]int)
	for v, ch := range e.Chains {
		if len(ch) == 0 {
			return fmt.Errorf("embedding: variable %d has an empty chain", v)
		}
		for _, q := range ch {
			if prev, dup := seenOwner[q]; dup {
				return fmt.Errorf("embedding: qubit %d shared by variables %d and %d", q, prev, v)
			}
			seenOwner[q] = v
		}
		if !e.connected(ch) {
			return fmt.Errorf("embedding: chain of variable %d is disconnected", v)
		}
	}
	for _, pair := range m.Interactions() {
		if e.couplerBetween(pair[0], pair[1]) == [2]int{-1, -1} {
			return fmt.Errorf("embedding: no coupler between chains %d and %d", pair[0], pair[1])
		}
	}
	return nil
}

func (e *Embedding) connected(chain []int) bool {
	in := map[int]bool{}
	for _, q := range chain {
		in[q] = true
	}
	seen := map[int]bool{chain[0]: true}
	queue := []int{chain[0]}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range e.hw.Neighbors(q) {
			if in[nb] && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(chain)
}

// couplerBetween returns one physical edge joining the chains of u and v,
// or {-1,-1}.
func (e *Embedding) couplerBetween(u, v int) [2]int {
	inV := map[int]bool{}
	for _, q := range e.Chains[v] {
		inV[q] = true
	}
	for _, q := range e.Chains[u] {
		for _, nb := range e.hw.Neighbors(q) {
			if inV[nb] {
				return [2]int{q, nb}
			}
		}
	}
	return [2]int{-1, -1}
}
