package fastoracle

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Regression: Table() used to compute `size := 1 << n`, which wraps to 0
// at n=64 — New accepted the graph, the table built empty, and the first
// Contains probe panicked with an index out of range. The cap now turns
// every oversized sweep (including the boundary) into a typed error.
func TestTableTooLargeBoundary(t *testing.T) {
	for _, n := range []int{TableMaxVertices + 1, 63, 64} {
		e, err := New(graph.New(n), 1)
		if err != nil {
			t.Fatalf("n=%d: New: %v", n, err)
		}
		tab, terr := e.Table()
		if terr == nil {
			t.Fatalf("n=%d: Table built past the cap", n)
		}
		if !errors.Is(terr, ErrTooLarge) {
			t.Fatalf("n=%d: want ErrTooLarge, got %v", n, terr)
		}
		if tab != nil {
			t.Fatalf("n=%d: non-nil table alongside error", n)
		}
	}
	// The cap itself (and everything below) still builds.
	e, err := New(graph.Example6(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, terr := e.Table(); terr != nil {
		t.Fatalf("small table refused: %v", terr)
	}
}

// NewStore serves the exhaustive Table up to TableMaxVertices and a
// typed error past it, including beyond the one-word mask encoding.
func TestNewStoreCutover(t *testing.T) {
	g := graph.Gnm(10, 20, 1)
	tab, err := NewStore(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 1<<10; mask++ {
		if tab.Contains(mask) != e.KPlexMask(mask) {
			t.Fatalf("mask=%b: store disagrees with the evaluator", mask)
		}
	}
	for _, n := range []int{TableMaxVertices + 1, 64, 65} {
		if s, err := NewStore(graph.New(n), 1); !errors.Is(err, ErrTooLarge) || s != nil {
			t.Fatalf("n=%d store: got (%v, %v), want (nil, ErrTooLarge)", n, s, err)
		}
	}
}

// BenchmarkStoreCrossover times the two ways of answering "what is the
// maximum k-plex size" as n grows: the exhaustive Table sweep (2^n
// semantic evaluations, parallel) against branch-and-bound (pruned
// search). The Table wins only while 2^n is small; it stays the gate
// path's cache because one sweep serves every probe of a request, while
// a single maximum query is cheaper by search.
func BenchmarkStoreCrossover(b *testing.B) {
	for _, n := range []int{12, 16, 20, 24} {
		g := graph.Gnm(n, 3*n, 21)
		e, err := New(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		want := branchBound(b, e, g, BBOptions{}).Size
		b.Run(fmt.Sprintf("table/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, terr := e.Table()
				if terr != nil {
					b.Fatal(terr)
				}
				if tab.MaxPlexSize() != want {
					b.Fatal("table disagrees with branch-and-bound")
				}
			}
		})
		b.Run(fmt.Sprintf("bb/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if branchBound(b, e, g, BBOptions{}).Size != want {
					b.Fatal("branch-and-bound became inconsistent")
				}
			}
		})
	}
	// Past the one-word wall only the branch-and-bound exists.
	g := graph.Gnm(100, 300, 7)
	e, err := New(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bb/n=100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if branchBound(b, e, g, BBOptions{}).Size < 2 {
				b.Fatal("implausible maximum on the 100-vertex instance")
			}
		}
	})
}
