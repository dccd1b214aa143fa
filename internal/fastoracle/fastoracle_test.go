package fastoracle

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestEvaluatorMatchesClassicalPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(9)
		g := graph.Gnp(n, 0.2+rng.Float64()*0.6, rng.Int63())
		k := 1 + rng.Intn(n)
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			set := graph.MaskSubset(mask, n)
			if got, want := e.KPlexMask(mask), g.IsKPlex(set, k); got != want {
				t.Fatalf("n=%d k=%d mask=%b: KPlexMask=%v IsKPlex=%v", n, k, mask, got, want)
			}
			for T := 1; T <= n; T++ {
				want := len(set) >= T && g.IsKPlex(set, k)
				if got := e.Marked(mask, T); got != want {
					t.Fatalf("n=%d k=%d T=%d mask=%b: Marked=%v want %v", n, k, T, mask, got, want)
				}
			}
		}
	}
}

func TestEvaluatorPaperExample(t *testing.T) {
	// Example6's unique maximum 2-plex of size ≥ 4 is {v1,v2,v4,v5} =
	// |110110> = 54 (the paper's Fig. 9 setting).
	e, err := New(graph.Example6(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 64; mask++ {
		if got, want := e.Marked(mask, 4), mask == 54; got != want {
			t.Fatalf("mask %06b: Marked=%v want %v", mask, got, want)
		}
	}
}

func TestEvaluatorValidation(t *testing.T) {
	g := graph.Example6()
	if _, err := New(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(g, 7); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := New(graph.New(0), 1); err == nil {
		t.Error("empty graph accepted")
	}
	// Subset masks are one word: n=65 is refused up front with a typed
	// error, not left to panic on the first mask.
	if _, err := New(graph.New(65), 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("n=65: got %v, want ErrTooLarge", err)
	}
	if _, err := New(graph.New(64), 1); err != nil {
		t.Errorf("n=64 refused: %v", err)
	}
}

func TestTableMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(9)
		g := graph.Gnp(n, 0.4, rng.Int63())
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
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			if tab.Contains(mask) != e.KPlexMask(mask) {
				t.Fatalf("n=%d k=%d mask=%b: table disagrees with evaluator", n, k, mask)
			}
			for T := 1; T <= n; T++ {
				if tab.Marked(mask, T) != e.Marked(mask, T) {
					t.Fatalf("n=%d k=%d T=%d mask=%b: cached predicate disagrees", n, k, T, mask)
				}
				if tab.Predicate(T)(mask) != e.Marked(mask, T) {
					t.Fatalf("n=%d k=%d T=%d mask=%b: closure disagrees", n, k, T, mask)
				}
			}
		}
	}
}

func TestTableCountsAndMaxSize(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.Gnp(n, 0.5, rng.Int63())
		k := 1 + rng.Intn(2)
		e, err := New(g, k)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Table()
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for T := 0; T <= n; T++ {
			want := 0
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				if e.Marked(mask, T) {
					want++
					if s := bits.OnesCount64(mask); s > best {
						best = s
					}
				}
			}
			if got := tab.CountAtLeast(T); got != want {
				t.Fatalf("n=%d k=%d T=%d: CountAtLeast=%d, sweep says %d", n, k, T, got, want)
			}
		}
		if got := tab.MaxPlexSize(); got != best {
			t.Fatalf("n=%d k=%d: MaxPlexSize=%d, sweep says %d", n, k, got, best)
		}
	}
}

func TestTableDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Gnm(12, 30, 7)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want, err := e.Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got, gerr := e.Table()
		if gerr != nil {
			t.Fatal(gerr)
		}
		for i, word := range want.words {
			if got.words[i] != word {
				t.Fatalf("workers=%d: table word %d differs", w, i)
			}
		}
		for s, c := range want.bySize {
			if got.bySize[s] != c {
				t.Fatalf("workers=%d: histogram bucket %d differs", w, s)
			}
		}
	}
}

func BenchmarkEvaluatorSweep(b *testing.B) {
	g := graph.Gnm(16, 80, 3)
	e, err := New(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table(); err != nil {
			b.Fatal(err)
		}
	}
}
