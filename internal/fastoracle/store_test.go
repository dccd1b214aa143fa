package fastoracle

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
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

func TestNewStoreCutover(t *testing.T) {
	small, err := NewStore(graph.Gnm(10, 20, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := small.(*Table); !ok {
		t.Fatalf("n=10 store is %T, want *Table", small)
	}
	big, err := NewStore(graph.Gnm(DefaultTableCutoff+2, 40, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := big.(*Lazy); !ok {
		t.Fatalf("n=%d store is %T, want *Lazy", DefaultTableCutoff+2, big)
	}
	if _, err := NewStore(graph.New(65), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("n=65 store: want ErrTooLarge, got %v", err)
	}
}

// The two Store representations must be bit-identical wherever both are
// defined: sweep every mask and every threshold on instances small
// enough to hold the exhaustive table.
func TestLazyMatchesTableExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(9)
		g := graph.Gnp(n, 0.2+rng.Float64()*0.6, rng.Int63())
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Table()
		if err != nil {
			t.Fatal(err)
		}
		order, _ := reduce.DegeneracyOrder(g)
		lazy := &Lazy{e: e, order: order}
		if lazy.N() != tab.N() {
			t.Fatalf("N mismatch: %d vs %d", lazy.N(), tab.N())
		}
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			if lazy.Contains(mask) != tab.Contains(mask) {
				t.Fatalf("n=%d k=%d mask=%b: Contains disagrees", n, k, mask)
			}
		}
		for T := -1; T <= n+1; T++ {
			if got, want := lazy.CountAtLeast(T), tab.CountAtLeast(T); got != want {
				t.Fatalf("n=%d k=%d T=%d: lazy CountAtLeast=%d, table says %d", n, k, T, got, want)
			}
			for _, mask := range []uint64{0, 1, (1 << uint(n)) - 1, uint64(rng.Intn(1 << uint(n)))} {
				if lazy.Marked(mask, T) != tab.Marked(mask, T) {
					t.Fatalf("n=%d k=%d T=%d mask=%b: Marked disagrees", n, k, T, mask)
				}
				if lazy.Predicate(T)(mask) != tab.Predicate(T)(mask) {
					t.Fatalf("n=%d k=%d T=%d mask=%b: Predicate disagrees", n, k, T, mask)
				}
			}
		}
		if got, want := lazy.MaxPlexSize(), tab.MaxPlexSize(); got != want {
			t.Fatalf("n=%d k=%d: lazy MaxPlexSize=%d, table says %d", n, k, got, want)
		}
	}
}

// Above the cutover NewStore hands out the Lazy store; its counts must
// still agree with a directly-built Table (which holds up to n=30).
func TestStoreAboveCutoverMatchesTable(t *testing.T) {
	n := DefaultTableCutoff + 2
	g := graph.Gnm(n, 2*n, 9)
	k := 2
	s, err := NewStore(g, k)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, k)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.MaxPlexSize(), tab.MaxPlexSize(); got != want {
		t.Fatalf("MaxPlexSize: store=%d table=%d", got, want)
	}
	// Counting near the top is what the binary search exercises; tiny
	// thresholds would enumerate every subset of size ≤ k and beyond.
	for T := tab.MaxPlexSize() - 2; T <= n; T++ {
		if got, want := s.CountAtLeast(T), tab.CountAtLeast(T); got != want {
			t.Fatalf("T=%d: store CountAtLeast=%d, table says %d", T, got, want)
		}
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 2000; i++ {
		mask := rng.Uint64() & ((1 << uint(n)) - 1)
		if s.Contains(mask) != tab.Contains(mask) {
			t.Fatalf("mask=%b: store Contains disagrees with table", mask)
		}
	}
}

func TestLazyCountedPredicate(t *testing.T) {
	s, err := NewStore(graph.Gnm(DefaultTableCutoff+1, 50, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	lazy, ok := s.(*Lazy)
	if !ok {
		t.Fatalf("store is %T, want *Lazy", s)
	}
	var hits obs.Counter
	pred := lazy.CountedPredicate(3, &hits)
	for mask := uint64(0); mask < 100; mask++ {
		if pred(mask) != lazy.Marked(mask, 3) {
			t.Fatalf("counted predicate changed the answer at mask=%d", mask)
		}
	}
	if got := hits.Value(); got != 100 {
		t.Fatalf("hit counter = %d, want 100", got)
	}
	if lazy.CountedPredicate(3, nil)(1) != lazy.Marked(1, 3) {
		t.Fatal("nil-counter predicate disagrees")
	}
}

// BenchmarkStoreCrossover times the two ways of answering "what is the
// maximum k-plex size" as n grows: the exhaustive Table sweep (2^n
// semantic evaluations, parallel) against the lazy branch-and-bound
// (pruned search, serial). The Table wins while 2^n is small; the
// crossover motivates DefaultTableCutoff — past it the sweep's
// exponential wall dwarfs the search tree.
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
