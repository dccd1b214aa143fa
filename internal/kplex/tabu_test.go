package kplex

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestTabuReturnsValidKPlex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		g := graph.Gnp(12, 0.2+rng.Float64()*0.6, rng.Int63())
		for k := 1; k <= 3; k++ {
			set := TabuSearch(g, k, rng.Int63())
			if !g.IsKPlex(set, k) {
				t.Fatalf("tabu returned non-%d-plex %v", k, set)
			}
		}
	}
}

func TestTabuAtLeastGreedyOnPlanted(t *testing.T) {
	// On planted instances tabu should match or beat greedy.
	wins, losses := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		g, _ := graph.PlantedKPlex(16, 9, 2, 0.15, seed)
		greedy := Greedy(g, 2)
		tabu := TabuSearch(g, 2, seed)
		switch {
		case len(tabu) > len(greedy):
			wins++
		case len(tabu) < len(greedy):
			losses++
		}
	}
	if losses > wins {
		t.Errorf("tabu lost to greedy on %d/10 planted instances (won %d)", losses, wins)
	}
}

func TestTabuFindsOptimumOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	hits := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		g := graph.Gnp(9, 0.5, rng.Int63())
		opt, err := Naive(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		set := TabuSearch(g, 2, rng.Int63())
		if len(set) == opt.Size {
			hits++
		}
	}
	if hits < trials*2/3 {
		t.Errorf("tabu hit the optimum on only %d/%d small instances", hits, trials)
	}
}

func TestTabuDeterministicUnderSeed(t *testing.T) {
	g := graph.Gnm(14, 40, 5)
	a := TabuSearch(g, 2, 9)
	b := TabuSearch(g, 2, 9)
	if len(a) != len(b) {
		t.Fatalf("tabu nondeterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tabu nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestTabuEdgeCases(t *testing.T) {
	if set := TabuSearch(graph.New(0), 2, 0); set != nil {
		t.Errorf("empty graph returned %v", set)
	}
	if set := TabuSearch(graph.New(3), 0, 0); set != nil {
		t.Errorf("k=0 returned %v", set)
	}
	// Single vertex.
	set := TabuSearch(graph.New(1), 1, 0)
	if len(set) != 1 {
		t.Errorf("singleton graph: %v", set)
	}
}
