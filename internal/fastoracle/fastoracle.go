// Package fastoracle is the semantic fast path of the k-plex Grover
// oracle: it answers the oracle predicate Marked(mask) — "the subset is a
// k-cplex of the complement graph with size ≥ T" — with per-vertex
// popcounts over packed complement-adjacency words instead of replaying
// the compiled reversible circuit. One oracle evaluation drops from
// O(gates) (thousands of gate operations) to O(|mask|) word operations.
//
// The package also provides the cross-threshold cache behind every
// gate-model probe (qTKP's one probe, qMKP's binary search): the k-cplex
// half of the predicate does not depend on the size threshold T, so
// Table packs one bit per mask ("is this subset a k-plex of g") plus a
// popcount histogram, computed once per request via the parallel worker
// pool and reused across every probe — only the popcount-vs-T comparison
// changes per probe, and the exact solution count M(T) needed to size
// the Grover iteration schedule becomes an O(n) suffix sum instead of a
// fresh 2^n sweep.
//
// The circuit simulator (internal/oracle) remains the ground truth:
// differential tests and FuzzFastOracle assert this package agrees with
// the circuit's TruthTable() gate-for-gate on every mask.
package fastoracle

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// ErrTooLarge marks an instance above TableMaxVertices, past which the
// exhaustive Table is not built. Callers branch with errors.Is.
var ErrTooLarge = errors.New("fastoracle: instance too large")

// Evaluator answers the oracle predicate for one fixed graph and k, at
// any vertex count. Two representations coexist:
//
//   - the one-word fast case (n ≤ 64): subset masks in the paper's ket
//     convention (vertex i at bit n-1-i, see graph.MaskSubset), answered
//     by KPlexMask/Marked — bit-identical to the compiled circuit;
//   - the multi-word case (any n): natural-order bitvec subsets
//     (vertex v at bit v, see graph.SubsetVec), answered by
//     KPlexVec/KPlexSet over packed multi-word complement rows.
//
// All methods are safe for concurrent use once built.
type Evaluator struct {
	n, k int
	// adjComp[v] is the complement adjacency row of vertex v as a subset
	// mask: bit n-1-u is set iff {v,u} is a complement edge. The k-cplex
	// check for a member v is then popcount(adjComp[v] & mask) ≤ k-1.
	// One-word fast case only: nil when n > 64.
	adjComp []uint64
	// compVec[v] is the same complement row as a natural-order bit vector
	// (bit u set iff {v,u} is a complement edge; no self bit) — the
	// multi-word representation backing KPlexVec and BranchBound.
	compVec []*bitvec.Vector
}

// New builds the evaluator for graph g (the original graph; the
// complement is formed internally, mirroring oracle.Build). Any vertex
// count is accepted; the one-word mask surface additionally requires
// n ≤ 64 and is only materialised below that width.
func New(g *graph.Graph, k int) (*Evaluator, error) {
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("fastoracle: empty graph")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("fastoracle: k=%d out of range [1,%d]", k, n)
	}
	e := &Evaluator{n: n, k: k, compVec: make([]*bitvec.Vector, n)}
	for v := 0; v < n; v++ {
		// Complement row = all vertices minus v itself minus g-neighbours.
		row := bitvec.New(n)
		row.SetAll()
		row.Set(v, false)
		row.AndNot(g.NeighborVec(v))
		e.compVec[v] = row
	}
	if n <= 64 {
		e.adjComp = make([]uint64, n)
		full := ^uint64(0) >> uint(64-n)
		for v := 0; v < n; v++ {
			e.adjComp[v] = full &^ (uint64(1) << uint(n-1-v)) &^ g.NeighborMask(v)
		}
	}
	return e, nil
}

// N returns the vertex count.
func (e *Evaluator) N() int { return e.n }

// K returns the plex parameter.
func (e *Evaluator) K() int { return e.k }

// maskable panics unless the one-word mask surface exists (n ≤ 64).
func (e *Evaluator) maskable() {
	if e.adjComp == nil {
		panic(fmt.Sprintf("fastoracle: n=%d exceeds the one-word mask surface (n ≤ 64); use KPlexVec/KPlexSet", e.n))
	}
}

// KPlexMask reports whether the mask-encoded subset is a k-plex of g —
// equivalently a k-cplex of the complement, the T-independent half of the
// oracle predicate. O(|mask|) popcounts. One-word fast case: panics when
// n > 64 (use KPlexVec there).
func (e *Evaluator) KPlexMask(mask uint64) bool {
	e.maskable()
	for m := mask; m != 0; m &= m - 1 {
		v := e.n - 1 - bits.TrailingZeros64(m)
		if bits.OnesCount64(e.adjComp[v]&mask) > e.k-1 {
			return false
		}
	}
	return true
}

// Marked is the full oracle predicate: k-cplex of the complement AND
// size ≥ T. Bit-identical to the compiled circuit's output qubit.
func (e *Evaluator) Marked(mask uint64, T int) bool {
	return bits.OnesCount64(mask) >= T && e.KPlexMask(mask)
}

// KPlexVec is KPlexMask for the multi-word representation: s is a
// natural-order membership vector (graph.SubsetVec) of length n. Defined
// at any vertex count; one AndCount popcount sweep per member.
func (e *Evaluator) KPlexVec(s *bitvec.Vector) bool {
	if s.Len() != e.n {
		panic(fmt.Sprintf("fastoracle: subset length %d != n=%d", s.Len(), e.n))
	}
	for v := s.NextSet(0); v >= 0; v = s.NextSet(v + 1) {
		if e.compVec[v].AndCount(s) > e.k-1 {
			return false
		}
	}
	return true
}

// KPlexSet is KPlexVec for a plain vertex list.
func (e *Evaluator) KPlexSet(set []int) bool {
	return e.KPlexVec(graph.SubsetVec(set, e.n))
}

// tableGrain is the per-chunk word count of the parallel table build: 64
// words = 4096 masks per chunk, enough semantic evaluations to amortise
// chunk dispatch while keeping all workers busy on 2^10-mask instances.
const tableGrain = 64

// TableMaxVertices caps the exhaustive Table: 2^30 masks ≈ 128 MiB of
// packed bits is the largest sweep worth materialising. The cap also
// fixes a latent overflow — the old `1 << n` table size silently wrapped
// to 0 at n=64, so Contains indexed an empty word slice and panicked.
// core.MaxGateVertices stays at or below it, so every gate-model
// instance gets the table.
const TableMaxVertices = 30

// Table is the packed cross-threshold cplex cache: bit mask of word
// mask/64 records whether that subset is a k-plex of g, and bySize[s]
// counts the k-plex masks of popcount s. Built once per (g, k), shared by
// every probe threshold of a gate-model request. Safe for concurrent
// reads.
type Table struct {
	n      int
	words  []uint64
	bySize []int
}

// NewStore builds the Table for (g, k): the one k-plex cache behind
// every probe of a gate-model request. Above TableMaxVertices it returns
// an ErrTooLarge-wrapped error; the exact answer for those instances
// comes from Evaluator.BranchBound, which has no mask surface to cache.
func NewStore(g *graph.Graph, k int) (*Table, error) {
	e, err := New(g, k)
	if err != nil {
		return nil, err
	}
	return e.Table()
}

// Table sweeps all 2^n masks through the semantic predicate, fanning
// word-aligned chunks out over the worker pool (each word's 64 masks are
// written by exactly one worker). The result is bit-identical at any
// worker count. Instances above TableMaxVertices return ErrTooLarge: the
// shift `1 << n` is undefined word-width territory at n=64 (it used to
// wrap the table size to 0 and panic on the first Contains probe), and
// sweeps beyond 2^30 masks are not worth materialising.
func (e *Evaluator) Table() (*Table, error) {
	if e.n > TableMaxVertices {
		return nil, fmt.Errorf("fastoracle: exhaustive table needs n ≤ %d, got n=%d: %w", TableMaxVertices, e.n, ErrTooLarge)
	}
	size := 1 << uint(e.n)
	nw := (size + 63) / 64
	t := &Table{n: e.n, words: make([]uint64, nw), bySize: make([]int, e.n+1)}
	parallel.For(nw, tableGrain, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			var word uint64
			base := uint64(w) << 6
			for b := 0; b < 64 && int(base)+b < size; b++ {
				if e.KPlexMask(base | uint64(b)) {
					word |= uint64(1) << uint(b)
				}
			}
			t.words[w] = word
		}
	})
	// Histogram by subset size: a serial pass over the packed words —
	// O(2^n/64) word scans plus one popcount per marked mask — so the
	// fold order is fixed regardless of the worker count above.
	for w, word := range t.words {
		base := uint64(w) << 6
		for m := word; m != 0; m &= m - 1 {
			mask := base | uint64(bits.TrailingZeros64(m))
			t.bySize[bits.OnesCount64(mask)]++
		}
	}
	return t, nil
}

// N returns the vertex count the table was built for.
func (t *Table) N() int { return t.n }

// Contains reports whether the mask-encoded subset is a k-plex.
func (t *Table) Contains(mask uint64) bool {
	return t.words[mask>>6]&(uint64(1)<<uint(mask&63)) != 0
}

// Marked is the oracle predicate at threshold T, served from the cache:
// one word probe plus one popcount.
func (t *Table) Marked(mask uint64, T int) bool {
	return bits.OnesCount64(mask) >= T && t.Contains(mask)
}

// Predicate returns the threshold-T oracle predicate as a closure — the
// form grover.Search/CountMarked/SuccessProbability consume. The closure
// only reads the packed table, so it is safe for the engines' parallel
// fan-outs.
func (t *Table) Predicate(T int) func(mask uint64) bool {
	return func(mask uint64) bool { return t.Marked(mask, T) }
}

// CountAtLeast returns the exact number of marked masks at threshold T —
// |{S : S is a k-plex, |S| ≥ T}| — as a histogram suffix sum: the M that
// sizes the Grover iteration schedule, for free per binary-search probe.
func (t *Table) CountAtLeast(T int) int {
	if T < 0 {
		T = 0
	}
	c := 0
	for s := T; s <= t.n; s++ {
		c += t.bySize[s]
	}
	return c
}

// MaxPlexSize returns the largest subset size with any k-plex — the upper
// edge a binary search converges to — or 0 when only the empty set
// qualifies.
func (t *Table) MaxPlexSize() int {
	for s := t.n; s > 0; s-- {
		if t.bySize[s] > 0 {
			return s
		}
	}
	return 0
}
