package fastoracle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
)

// DefaultTableCutoff is NewStore's representation switch: at or below it
// the exhaustive Table is materialised (2^20 masks = 128 KiB of packed
// bits, built in milliseconds); above it the Lazy store answers the same
// queries on demand. The cutoff covers every gate-simulable instance
// (core.MaxGateVertices = 24 keeps circuit runs far smaller), so the
// paths that must stay bit-identical to the circuit always see the Table.
const DefaultTableCutoff = 20

// Store is the threshold-independent k-plex cache behind qMKP's binary
// search, abstracted over its representation: the exhaustive Table
// (small n) and the Lazy evaluator (large n) answer the same queries
// with identical results. Subset masks use the one-word ket convention,
// so every Store is limited to n ≤ 64. Implementations are safe for
// concurrent use.
type Store interface {
	// N returns the vertex count the store was built for.
	N() int
	// Contains reports whether the mask-encoded subset is a k-plex.
	Contains(mask uint64) bool
	// Marked is the oracle predicate at threshold T.
	Marked(mask uint64, T int) bool
	// Predicate returns the threshold-T oracle predicate as a closure.
	Predicate(T int) func(mask uint64) bool
	// CountedPredicate is Predicate with cache-hit accounting.
	CountedPredicate(T int, hits *obs.Counter) func(mask uint64) bool
	// CountAtLeast returns |{S : S is a k-plex, |S| ≥ T}| exactly.
	CountAtLeast(T int) int
	// MaxPlexSize returns the largest subset size with any k-plex, or 0
	// when only the empty set qualifies.
	MaxPlexSize() int
}

// NewStore builds the k-plex store for (g, k), choosing the
// representation by size: exhaustive Table for n ≤ DefaultTableCutoff,
// Lazy evaluation for n ≤ 64, and an ErrTooLarge-wrapped error beyond
// the one-word mask encoding (use Evaluator.BranchBound / KPlexVec for
// those instances — they have no mask surface to cache).
func NewStore(g *graph.Graph, k int) (Store, error) {
	n := g.N()
	if n > 64 {
		return nil, fmt.Errorf("fastoracle: store serves one-word subset masks, needs n ≤ 64, got n=%d: %w", n, ErrTooLarge)
	}
	e, err := New(g, k)
	if err != nil {
		return nil, err
	}
	if n <= DefaultTableCutoff {
		t, terr := e.Table()
		if terr != nil {
			return nil, terr
		}
		return t, nil
	}
	order, _ := reduce.DegeneracyOrder(g)
	return &Lazy{e: e, order: order}, nil
}

// Lazy answers the Store queries without materialising 2^n bits:
// membership probes re-run the O(|mask|) semantic predicate, the
// count and maximum come from deterministic serial search over the
// multi-word complement rows (hereditary DFS and BranchBound). Results
// are bit-identical to the Table wherever both are defined — the
// differential tests sweep the overlap. CountAtLeast's cost scales with
// the number of k-plexes at or above the threshold (plus the pruned
// search skeleton), so it is cheap near the maximum and expensive for
// tiny thresholds; the binary search that consumes it probes near the
// top.
type Lazy struct {
	e       *Evaluator
	order   []int // degeneracy order of the graph, MaxPlexSize's branch order
	maxOnce sync.Once
	maxSize int
	// nodes accumulates the search-tree nodes every lazy answer cost
	// (BranchBound waves plus counting DFS). Each contribution is itself
	// deterministic, so the running total is bit-identical at any worker
	// count — core attributes it to the fastoracle.bb.nodes counter.
	nodes atomic.Int64
}

// N returns the vertex count the store was built for.
func (l *Lazy) N() int { return l.e.n }

// Contains reports whether the mask-encoded subset is a k-plex,
// evaluated on demand.
func (l *Lazy) Contains(mask uint64) bool { return l.e.KPlexMask(mask) }

// Marked is the oracle predicate at threshold T.
func (l *Lazy) Marked(mask uint64, T int) bool { return l.e.Marked(mask, T) }

// Predicate returns the threshold-T oracle predicate as a closure. The
// closure only reads immutable state, so it is safe for the engines'
// parallel fan-outs.
func (l *Lazy) Predicate(T int) func(mask uint64) bool {
	return func(mask uint64) bool { return l.e.Marked(mask, T) }
}

// CountedPredicate is Predicate with cache-hit accounting, mirroring
// Table.CountedPredicate: the counter is atomic and answers are
// unchanged. A nil counter returns the plain predicate.
func (l *Lazy) CountedPredicate(T int, hits *obs.Counter) func(mask uint64) bool {
	if hits == nil {
		return l.Predicate(T)
	}
	return func(mask uint64) bool {
		hits.Add(1)
		return l.e.Marked(mask, T)
	}
}

// CountAtLeast counts the k-plexes of size ≥ T by hereditary DFS: every
// k-plex is reachable by inserting its members in increasing branch
// order through k-plex intermediates (subsets of k-plexes are k-plexes),
// so each is visited exactly once; branches that cannot reach T prune.
// Exact and deterministic — agrees with Table.CountAtLeast bit for bit.
func (l *Lazy) CountAtLeast(T int) int {
	if T < 0 {
		T = 0
	}
	if T > l.e.n {
		return 0
	}
	s := newBBState(l.e)
	cand := make([]int, l.e.n)
	for i := range cand {
		cand[i] = i
	}
	c := s.countAtLeast(cand, T)
	l.nodes.Add(s.nodes)
	return c
}

// countAtLeast counts the k-plexes S with P ⊆ S ⊆ P ∪ cand and |S| ≥ T.
// Each loop iteration roots the subtree of plexes whose smallest member
// beyond P (in candidate order) is feas[i].
func (b *bbState) countAtLeast(cand []int, T int) int {
	b.nodes++
	c := 0
	if len(b.pList) >= T {
		c = 1
	}
	feas, _ := b.feasibleCands(cand)
	if len(b.pList)+len(feas) < T {
		return c
	}
	b.depth++
	for i, v := range feas {
		if len(b.pList)+1+len(feas)-i-1 < T {
			break // even taking every remaining candidate cannot reach T
		}
		b.add(v)
		c += b.countAtLeast(feas[i+1:], T)
		b.remove(v)
	}
	b.depth--
	return c
}

// MaxPlexSize returns the largest k-plex size, computed once via
// BranchBound and cached for subsequent calls.
func (l *Lazy) MaxPlexSize() int {
	l.maxOnce.Do(func() {
		//lint:allow errwrap context.Background never cancels, so the only error BranchBound returns cannot occur here
		res, _ := l.e.BranchBound(context.Background(), BBOptions{Order: l.order})
		l.maxSize = res.Size
		l.nodes.Add(res.Nodes)
	})
	return l.maxSize
}

// SearchNodes reports the cumulative deterministic search cost behind the
// answers served so far — what core attributes to the fastoracle.bb.nodes
// counter.
func (l *Lazy) SearchNodes() int64 { return l.nodes.Load() }
