package fastoracle

import (
	"errors"
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
