package kplex_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/milp"
	"repro/internal/parallel"
	"repro/internal/qubo"
)

// The exact-engine differential on 21–64 vertices: the kernel-disabled
// raw search is the reference, the kernelize-then-search pipeline must
// agree with it on every instance — and the pipeline's answer (Size, Set
// and Nodes) must be bit-identical at REPRO_WORKERS = 1, 2 and 8. A MILP
// cross-check on small induced subgraphs ties the agreement to an engine
// that shares no code with either (subgraphs stay at 5–6 vertices; see
// the e2e test for why the MILP cannot go larger on sparse inputs).
func TestBBMILPDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		n := 21 + rng.Intn(44)
		g := graph.Gnm(n, n*(2+rng.Intn(3)), rng.Int63())
		k := 1 + rng.Intn(3)

		raw, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{DisableKernel: true})
		if err != nil {
			t.Fatalf("trial %d: raw BB: %v", trial, err)
		}
		want := raw.Size

		var base kplex.Result
		for i, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			res, err := kplex.BB(g, k)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatalf("trial %d: BB: %v", trial, err)
			}
			if res.Size != want {
				t.Fatalf("trial %d (n=%d k=%d workers=%d): BB says %d, kernel-disabled BB says %d",
					trial, n, k, w, res.Size, want)
			}
			if !g.IsKPlex(res.Set, k) || len(res.Set) != res.Size {
				t.Fatalf("trial %d: invalid witness %v", trial, res.Set)
			}
			if i == 0 {
				base = res
				continue
			}
			if res.Nodes != base.Nodes || len(res.Set) != len(base.Set) {
				t.Fatalf("trial %d: workers=%d diverged: %+v vs %+v", trial, w, res, base)
			}
			for j := range res.Set {
				if res.Set[j] != base.Set[j] {
					t.Fatalf("trial %d: workers=%d set %v vs %v", trial, w, res.Set, base.Set)
				}
			}
		}

		// MILP leg on an induced subgraph small enough for it to close.
		size := 5 + rng.Intn(2)
		perm := rng.Perm(n)[:size]
		sub, _ := g.InducedSubgraph(perm)
		subRes, err := kplex.BB(sub, k)
		if err != nil {
			t.Fatalf("trial %d: sub BB: %v", trial, err)
		}
		enc, err := qubo.FormulateMKP(sub, k, 2)
		if err != nil {
			t.Fatalf("trial %d: formulate: %v", trial, err)
		}
		milpRes, err := milp.Solve(enc.Model.Linearize(), milp.Options{})
		if err != nil {
			t.Fatalf("trial %d: milp: %v", trial, err)
		}
		if !milpRes.Optimal {
			t.Fatalf("trial %d: MILP did not prove optimality", trial)
		}
		set, valid := enc.DecodeValid(milpRes.X)
		if !valid || len(set) != subRes.Size {
			t.Errorf("trial %d (sub n=%d k=%d): BB says %d, MILP says %d (valid=%v)",
				trial, size, k, subRes.Size, len(set), valid)
		}
	}
}

// Kernelization must be answer-preserving end to end: the pipeline
// (peel, split, search, lift) and the raw whole-graph search return the
// same size and a valid witness on every instance — including ones where
// peeling removes most vertices and ones where it removes none.
func TestBBKernelMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 12; trial++ {
		var g *graph.Graph
		if trial%3 == 2 {
			// Dense plant in sparse noise: heavy peeling, few components.
			g, _ = graph.PlantedKPlex(40+rng.Intn(40), 8+rng.Intn(4), 2, 0.04, rng.Int63())
		} else {
			g = graph.Gnm(30+rng.Intn(60), 100+rng.Intn(200), rng.Int63())
		}
		k := 1 + rng.Intn(3)
		kern, err := kplex.BB(g, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		raw, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{DisableKernel: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if kern.Size != raw.Size {
			t.Errorf("trial %d (n=%d k=%d): kernel pipeline says %d, raw search says %d",
				trial, g.N(), k, kern.Size, raw.Size)
		}
		if !g.IsKPlex(kern.Set, k) || len(kern.Set) != kern.Size {
			t.Errorf("trial %d: kernel pipeline witness %v invalid", trial, kern.Set)
		}
		if kern.Nodes > raw.Nodes {
			t.Errorf("trial %d (n=%d k=%d): kernelization increased search cost: %d > %d nodes",
				trial, g.N(), k, kern.Nodes, raw.Nodes)
		}
	}
}
