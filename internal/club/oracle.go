package club

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/qarith"
	"repro/internal/qsim"
)

// Circuit block labels (same accounting scheme as the k-plex oracle).
const (
	BlockEncoding     = "graph-encoding"
	BlockReachability = "reachability"
	BlockClubCheck    = "club-check"
	BlockSizeCheck    = "size-determination"
)

// Oracle recognises subsets that are n-clubs of size ≥ T — the adaptation
// of the paper's oracle to distance-based relaxations: the graph-encoding
// stage is reused unchanged (edge qubits fire when both endpoints are
// selected, so paths automatically stay inside the subset), degree
// counting is replaced by an L-hop reachability cascade, and the size
// stage is reused verbatim.
type Oracle struct {
	N int
	L int // diameter bound
	T int // size threshold

	circuit *qsim.Circuit
	vertex  []int
	clubQ   int
	sizeQ   int
	outQ    int
	fwdEnd  int

	scratch *bitvec.Vector

	// adjKet, when non-nil (Options.FastPath), holds each vertex's
	// neighbourhood as a ket-convention mask; Marked then answers by
	// masked bitset BFS instead of circuit replay. The circuit encoding
	// only lights an edge qubit when both endpoints are selected, so every
	// path it can certify lies entirely inside the subset — exactly the
	// paths a BFS restricted to the mask explores.
	adjKet []uint64
}

// Options selects build-time variants of the club oracle.
type Options struct {
	// FastPath makes Marked and TruthTable answer the oracle predicate
	// semantically — popcount size check plus an L-bounded BFS over packed
	// adjacency words per selected source — instead of replaying the
	// compiled circuit. The circuit is still built (gate accounting and
	// the differential ground truth need it); requires n ≤ 64.
	FastPath bool
}

// constZero marks a reachability entry that is identically |0> (no path of
// that length exists in the host graph), so it contributes no gates.
const constZero = -1

// BuildOracle compiles the n-club oracle for graph g with diameter bound L
// and size threshold T.
func BuildOracle(g *graph.Graph, L, T int, opts Options) (*Oracle, error) {
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("club: empty graph")
	}
	if L < 1 || L >= n {
		return nil, fmt.Errorf("club: diameter bound L=%d out of range [1,%d)", L, n)
	}
	if T < 1 || T > n {
		return nil, fmt.Errorf("club: T=%d out of range [1,%d]", T, n)
	}
	c := qsim.NewCircuit()
	o := &Oracle{N: n, L: L, T: T, circuit: c}
	o.vertex = c.AllocReg("v", n)

	pair := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}

	// Stage 1 — graph encoding (paper's box A, on G itself).
	c.SetBlock(BlockEncoding)
	edgeQ := make(map[[2]int]int, g.M())
	for _, e := range g.Edges() {
		q := c.Alloc(fmt.Sprintf("e[%d,%d]", e[0]+1, e[1]+1))
		c.CCX(o.vertex[e[0]], o.vertex[e[1]], q)
		edgeQ[e] = q
	}

	// Stage 2 — bounded-hop reachability. reach[t][{u,v}] holds "u and v
	// are joined by a path of ≤ t intra-subset edges".
	c.SetBlock(BlockReachability)
	reach := make(map[[2]int]int, n*n/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if q, ok := edgeQ[pair(u, v)]; ok {
				reach[pair(u, v)] = q
			} else {
				reach[pair(u, v)] = constZero
			}
		}
	}
	for t := 2; t <= L; t++ {
		next := make(map[[2]int]int, len(reach))
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				key := pair(u, v)
				// Terms of the OR: the previous reach bit, plus one
				// product per intermediate w adjacent to v.
				var terms []int
				if prev := reach[key]; prev != constZero {
					terms = append(terms, prev)
				}
				for w := 0; w < n; w++ {
					if w == u || w == v || !g.HasEdge(w, v) {
						continue
					}
					prevUW := reach[pair(u, w)]
					if prevUW == constZero {
						continue
					}
					p := c.Alloc(fmt.Sprintf("p%d[%d,%d,%d]", t, u+1, w+1, v+1))
					c.CCX(prevUW, edgeQ[pair(w, v)], p)
					terms = append(terms, p)
				}
				if len(terms) == 0 {
					next[key] = constZero
					continue
				}
				// OR by De Morgan: flip out when every term is |0>,
				// then invert.
				out := c.Alloc(fmt.Sprintf("r%d[%d,%d]", t, u+1, v+1))
				ctrls := make([]qsim.Control, len(terms))
				for i, q := range terms {
					ctrls[i] = qsim.Off(q)
				}
				c.MCX(ctrls, out)
				c.X(out)
				next[key] = out
			}
		}
		reach = next
	}

	// Stage 3 — club check: a selected pair with no ≤L-hop connection is
	// a violation; the club flag requires zero violations.
	c.SetBlock(BlockClubCheck)
	var bads []int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			bad := c.Alloc(fmt.Sprintf("bad[%d,%d]", u+1, v+1))
			ctrls := []qsim.Control{qsim.On(o.vertex[u]), qsim.On(o.vertex[v])}
			if r := reach[pair(u, v)]; r != constZero {
				ctrls = append(ctrls, qsim.Off(r))
			}
			c.MCX(ctrls, bad)
			bads = append(bads, bad)
		}
	}
	o.clubQ = c.Alloc("club")
	ctrls := make([]qsim.Control, len(bads))
	for i, q := range bads {
		ctrls[i] = qsim.Off(q)
	}
	c.MCX(ctrls, o.clubQ)

	// Stage 4 — size determination, verbatim from the k-plex oracle.
	c.SetBlock(BlockSizeCheck)
	width := qarith.WidthFor(n)
	acc := qarith.NewAccumulator(c, "size", width)
	for _, vq := range o.vertex {
		acc.AddBit(c, vq)
	}
	tReg := qarith.LoadConst(c, "T", T, width)
	o.sizeQ = qarith.GreaterOrEqual(c, acc.Bits(), tReg)
	o.outQ = c.Alloc("oracle")
	c.CCX(o.clubQ, o.sizeQ, o.outQ)

	o.fwdEnd = c.Len() - 1
	c.AppendInverse(0, o.fwdEnd)
	o.scratch = bitvec.New(c.NumQubits())
	if opts.FastPath {
		if n > 64 {
			return nil, fmt.Errorf("club: fast path requires n ≤ 64, got n=%d", n)
		}
		o.adjKet = make([]uint64, n)
		for v := 0; v < n; v++ {
			o.adjKet[v] = g.NeighborMask(v)
		}
	}
	return o, nil
}

// Marked evaluates the oracle predicate for one subset mask (paper ket
// convention). With the fast path enabled this is a size popcount plus a
// bounded BFS per selected source and safe for concurrent use; otherwise
// it replays the forward circuit on the shared scratch register and is
// NOT safe for concurrent use — TruthTable is the bulk entry point.
func (o *Oracle) Marked(mask uint64) bool {
	if o.adjKet != nil {
		return o.markedFast(mask)
	}
	return o.markedInto(o.scratch, mask)
}

// MarkedCircuit evaluates the predicate by circuit replay regardless of
// the fast-path setting — the differential tests' reference. Not safe for
// concurrent use (shared scratch).
func (o *Oracle) MarkedCircuit(mask uint64) bool {
	return o.markedInto(o.scratch, mask)
}

// markedInto is the circuit evaluation on a caller-supplied register, the
// worker-scratch form used by the parallel truth-table sweep.
func (o *Oracle) markedInto(st *bitvec.Vector, mask uint64) bool {
	st.Clear()
	for i := 0; i < o.N; i++ {
		st.Set(o.vertex[i], mask&(1<<uint(o.N-1-i)) != 0)
	}
	o.circuit.RunReversibleRange(st, 0, o.fwdEnd, nil)
	return st.Get(o.clubQ) && st.Get(o.sizeQ)
}

// markedFast is the semantic predicate: size ≥ T and every selected pair
// joined by a ≤L-hop path whose vertices all lie inside the subset.
func (o *Oracle) markedFast(mask uint64) bool {
	return bits.OnesCount64(mask) >= o.T && o.clubFast(mask)
}

// clubFast runs one L-bounded BFS per selected source, restricted to the
// subset: frontier expansion is a word-OR of neighbour masks ANDed with
// the subset, mirroring the circuit's reachability cascade (whose edge
// qubits only fire when both endpoints are selected).
func (o *Oracle) clubFast(mask uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		start := m & (^m + 1) // isolated lowest bit: the source vertex
		visited, frontier := start, start
		for t := 0; t < o.L && frontier != 0; t++ {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				w := o.N - 1 - bits.TrailingZeros64(f)
				next |= o.adjKet[w]
			}
			next &= mask &^ visited
			visited |= next
			frontier = next
		}
		if visited != mask {
			return false
		}
	}
	return true
}

// truthTableGrain chunks the circuit sweep (thousands of gates per mask);
// fastTableGrain chunks the semantic sweep (a bounded BFS per mask).
const (
	truthTableGrain = 8
	fastTableGrain  = 1 << 10
)

// TruthTable evaluates the oracle on all 2^n masks, fanning the sweep out
// over the parallel pool — semantic word arithmetic when the fast path is
// enabled, per-worker scratch circuit replay otherwise. The table is
// bit-identical at any worker count and across the two paths.
func (o *Oracle) TruthTable() []bool {
	tt := make([]bool, 1<<uint(o.N))
	if o.adjKet != nil {
		parallel.For(len(tt), fastTableGrain, func(lo, hi int) {
			for mask := lo; mask < hi; mask++ {
				tt[mask] = o.markedFast(uint64(mask))
			}
		})
		return tt
	}
	parallel.ForScratch(len(tt), truthTableGrain,
		func() *bitvec.Vector { return bitvec.New(o.circuit.NumQubits()) },
		func(st *bitvec.Vector, lo, hi int) {
			for mask := lo; mask < hi; mask++ {
				tt[mask] = o.markedInto(st, uint64(mask))
			}
		})
	return tt
}

// TotalGates returns the gate count of one oracle call.
func (o *Oracle) TotalGates() int { return o.circuit.Len() }

// NumQubits returns the compiled circuit width.
func (o *Oracle) NumQubits() int { return o.circuit.NumQubits() }

// ComponentGates returns per-stage gate counts.
func (o *Oracle) ComponentGates() map[string]int { return o.circuit.GateCounts() }
