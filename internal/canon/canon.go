// Package canon computes an isomorphism-cheap canonical form of a
// graph: iterated degree refinement (1-dimensional Weisfeiler–Leman
// colour refinement) to a fixed point, a canonical vertex order sorted
// by final colour, and a SHA-256 hash over the reordered adjacency
// matrix. Two isomorphic instances whose refinement individualizes
// every vertex — the overwhelmingly common case for the irregular
// graphs real workloads submit — produce byte-identical forms, so the
// solver daemon's result cache recognises relabelled resubmissions of
// the same instance and serves the stored answer mapped through the
// isomorphism.
//
// Soundness does not rest on the refinement being complete: the cache
// compares the full canonical adjacency bytes on every hit, so a
// residual colour class with more than one vertex (a highly symmetric
// instance whose tie-break falls back to submission order) can only
// cost a cache miss, never a wrong answer.
//
// The per-round signature sweep fans out over the deterministic
// internal/parallel pool; forms are bit-identical at any REPRO_WORKERS
// setting (pinned by test at 1/2/8 workers).
package canon

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Form is the canonical form of one graph.
type Form struct {
	N     int
	M     int
	Hash  string // hex SHA-256 of Bytes — the cache key component
	Bytes []byte // canonical serialization: header + reordered adjacency bitmap
	Perm  []int  // original vertex -> canonical index
	order []int  // canonical index -> original vertex (inverse of Perm)

	Rounds int // refinement rounds until the partition stabilized
	Cells  int // final number of colour classes (== N when individualized)
}

// Discrete reports whether refinement individualized every vertex — the
// condition under which the form is a true isomorphism invariant.
func (f *Form) Discrete() bool { return f.Cells == f.N }

// Apply maps a 0-based vertex set from original labels to canonical
// indices (sorted).
func (f *Form) Apply(set []int) []int {
	if set == nil {
		return nil
	}
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = f.Perm[v]
	}
	slices.Sort(out)
	return out
}

// Lift maps a 0-based vertex set from canonical indices back to
// original labels (sorted) — the inverse of Apply, used to translate a
// cached witness onto a fresh submission's labelling.
func (f *Form) Lift(set []int) []int {
	if set == nil {
		return nil
	}
	out := make([]int, len(set))
	for i, c := range set {
		out[i] = f.order[c]
	}
	slices.Sort(out)
	return out
}

// mix is the splitmix64 finalizer — the same avalanche the anneal shot
// seeds use; label-invariant because its inputs are.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Canonical computes the canonical form of g.
//
// Refinement: colour(v) starts as degree(v); each round replaces it
// with a hash of (own colour, sorted multiset of neighbour colours),
// then compacts hashes to dense ranks in sorted-hash order. Every
// ingredient is a function of the isomorphism class alone, so the
// colour sequence is invariant under relabelling. The loop stops when
// the number of colour classes stops growing (at most n-1 rounds).
//
// Canonical order: vertices sorted by final colour, ties broken by
// original index — the tie-break is the one label-dependent step, and
// it only engages when refinement left a non-singleton class (see
// Discrete).
func Canonical(g *graph.Graph) *Form {
	n := g.N()
	f := &Form{N: n, M: g.M()}
	if n == 0 {
		f.Bytes = serialize(nil, nil, 0)
		f.Hash = hashBytes(f.Bytes)
		return f
	}

	neighbors := make([][]int, n)
	colors := make([]uint64, n)
	for v := 0; v < n; v++ {
		neighbors[v] = g.Neighbors(v)
		colors[v] = uint64(g.Degree(v))
	}
	cells := countCells(colors)

	sigs := make([]uint64, n)
	scratch := make([][]uint64, n)
	for rounds := 0; cells < n && rounds < n; rounds++ {
		// Signature sweep: each vertex hashes its own colour and the
		// sorted colours of its neighbourhood. Writes are per-index into
		// a pre-sized slice, so the fan-out is deterministic at any
		// worker count.
		parallel.For(n, 64, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				ns := scratch[v]
				if cap(ns) < len(neighbors[v]) {
					ns = make([]uint64, len(neighbors[v]))
					scratch[v] = ns
				}
				ns = ns[:len(neighbors[v])]
				for i, u := range neighbors[v] {
					ns[i] = colors[u]
				}
				slices.Sort(ns)
				h := mix(colors[v] + 0x9e3779b97f4a7c15)
				for _, c := range ns {
					h = mix(h ^ mix(c))
				}
				sigs[v] = h
			}
		})
		next := compact(sigs, colors)
		f.Rounds++
		if next == cells {
			break
		}
		cells = next
	}
	f.Cells = cells

	// Canonical order: by colour, ties by original index.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(colors[a], colors[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	f.order = order
	f.Perm = make([]int, n)
	for c, v := range order {
		f.Perm[v] = c
	}

	f.Bytes = serialize(neighbors, f.Perm, g.M())
	f.Hash = hashBytes(f.Bytes)
	return f
}

// compact replaces each signature with its dense rank in sorted-hash
// order, writing the ranks into colors, and returns the number of
// distinct ranks. Rank order is a function of the label-invariant
// signature values only.
func compact(sigs []uint64, colors []uint64) int {
	sorted := append([]uint64(nil), sigs...)
	slices.Sort(sorted)
	// Ranks are positions in the deduplicated list.
	uniq := slices.Compact(sorted)
	for v, s := range sigs {
		rank, _ := slices.BinarySearch(uniq, s)
		colors[v] = uint64(rank)
	}
	return len(uniq)
}

// countCells returns the number of distinct colours.
func countCells(colors []uint64) int {
	sorted := append([]uint64(nil), colors...)
	slices.Sort(sorted)
	return len(slices.Compact(sorted))
}

// serialize renders the canonical bytes: "qmkpcanon1", n, m as uvarints,
// then the upper triangle of the reordered adjacency matrix packed 8
// entries per byte, most significant bit first, in row-major order over
// canonical pairs (a, b), a < b. Equal bytes ⇔ identical canonical
// adjacency — the collision-proof comparison the cache performs on every
// hit.
//
// The body is built from the neighbour lists rather than by probing all
// n(n-1)/2 pairs: it starts zeroed and each edge sets its one bit, at
// position a(2n-a-1)/2 + (b-a-1) for canonical endpoints a < b. That is
// O(n²/8 + m), and the bytes are exactly those of the pairwise scan.
func serialize(neighbors [][]int, perm []int, m int) []byte {
	n := len(neighbors)
	body := (n*(n-1)/2 + 7) / 8
	out := make([]byte, 0, len("qmkpcanon1")+2*binary.MaxVarintLen64+body)
	out = append(out, "qmkpcanon1"...)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(m))
	bitmap := out[len(out) : len(out)+body]
	for v, ns := range neighbors {
		for _, u := range ns {
			a, b := perm[v], perm[u]
			if a >= b {
				continue // each edge once, from its lower canonical end
			}
			i := a*(2*n-a-1)/2 + (b - a - 1)
			bitmap[i/8] |= 0x80 >> (i % 8)
		}
	}
	return out[:len(out)+body]
}

// hashBytes returns the hex SHA-256 of b.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
