package kplex

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestBoundsBracketOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(7)
		g := graph.Gnp(n, 0.2+rng.Float64()*0.6, rng.Int63())
		for k := 1; k <= 3; k++ {
			opt, err := Naive(g, k)
			if err != nil {
				t.Fatal(err)
			}
			lb := len(Greedy(g, k))
			ub := UpperBound(g, k)
			if lb > opt.Size {
				t.Fatalf("n=%d k=%d: lower bound %d exceeds optimum %d", n, k, lb, opt.Size)
			}
			if ub < opt.Size {
				t.Fatalf("n=%d k=%d: upper bound %d below optimum %d", n, k, ub, opt.Size)
			}
			if cu := CoreUpperBound(g, k); cu < opt.Size {
				t.Fatalf("core bound %d below optimum %d", cu, opt.Size)
			}
			if du := DegreeUpperBound(g, k); du < opt.Size {
				t.Fatalf("degree bound %d below optimum %d", du, opt.Size)
			}
		}
	}
}

func TestUpperBoundTightOnSparseGraphs(t *testing.T) {
	// A star: max 1-plex is an edge (size 2); bounds should be well below n.
	g := graph.New(10)
	for v := 1; v < 10; v++ {
		g.AddEdge(0, v)
	}
	if ub := UpperBound(g, 1); ub > 3 {
		t.Errorf("star 1-plex upper bound %d, want ≤ 3", ub)
	}
}

func TestBoundsOnEmptyishGraphs(t *testing.T) {
	g := graph.New(5) // edgeless
	if ub := UpperBound(g, 2); ub < 2 {
		t.Errorf("edgeless k=2: ub = %d, want ≥ 2 (two isolated vertices)", ub)
	}
	if lb := len(Greedy(g, 2)); lb < 2 {
		t.Errorf("edgeless k=2: greedy lb = %d, want 2", lb)
	}
}
