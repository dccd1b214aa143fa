package kplex_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/milp"
	"repro/internal/qubo"
)

// loadGnm100 loads the checked-in 100-vertex DIMACS instance — the first
// graph in the repo past the one-word n ≤ 64 mask wall.
func loadGnm100(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.ReadFile("../graph/testdata/gnm100.clq")
	if err != nil {
		t.Fatalf("loading checked-in instance: %v", err)
	}
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("instance is %v, want graph(n=100,m=300)", g)
	}
	return g
}

// The tentpole end-to-end check: a >64-vertex instance solves exactly
// through the classical multi-word branch-and-bound, from DIMACS file to
// verified optimum. The expected sizes were established by two
// independent exact engines (the branch-and-bound and the MILP
// cross-check below) and are locked here as regression values.
func TestGnm100SolvesPastMaskWall(t *testing.T) {
	g := loadGnm100(t)
	wantSize := map[int]int{1: 3, 2: 5, 3: 6}
	for k := 1; k <= 3; k++ {
		res, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Size != wantSize[k] {
			t.Errorf("k=%d: BB size %d, want %d", k, res.Size, wantSize[k])
		}
		if !g.IsKPlex(res.Set, k) || len(res.Set) != res.Size {
			t.Errorf("k=%d: BB returned an invalid witness %v", k, res.Set)
		}
	}
}

// Cross-check the branch-and-bound against the MILP exact solver on induced
// subgraphs of the 100-vertex instance: the two engines share no code
// (complement-popcount search vs linearized QUBO over branch-and-bound
// on binaries), so agreement on every sample is strong evidence both
// are exact. Subgraphs stay at 5–6 vertices: sparse induced subgraphs
// are the MILP's worst case (near-empty graphs have combinatorially
// many symmetric optima, so its bound never closes — 7 vertices already
// needs ~15 s to prove optimality, 8 doesn't finish in 30 s).
func TestGnm100BranchBoundMatchesMILP(t *testing.T) {
	g := loadGnm100(t)
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		size := 5 + rng.Intn(2)
		perm := rng.Perm(g.N())[:size]
		sub, _ := g.InducedSubgraph(perm)
		k := 1 + rng.Intn(3)
		res, err := kplex.BBOpt(context.Background(), sub, k, kplex.BBOptions{})
		if err != nil {
			t.Fatalf("trial %d: BB: %v", trial, err)
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
		if !valid {
			t.Fatalf("trial %d: MILP optimum decodes invalid", trial)
		}
		if len(set) != res.Size {
			t.Errorf("trial %d (n=%d k=%d): BB says %d, MILP says %d",
				trial, size, k, res.Size, len(set))
		}
	}
}

// loadInstance loads a checked-in DIMACS instance and asserts its shape.
func loadInstance(t *testing.T, name string, wantN, wantM int) *graph.Graph {
	t.Helper()
	g, err := graph.ReadFile("../graph/testdata/" + name)
	if err != nil {
		t.Fatalf("loading checked-in instance: %v", err)
	}
	if g.N() != wantN || g.M() != wantM {
		t.Fatalf("instance is %v, want graph(n=%d,m=%d)", g, wantN, wantM)
	}
	return g
}

// The kernelize-then-search instances: gnm200 (uniform sparse, twice past
// the mask wall) and planted150 (ten dense communities in sparse noise —
// the peeling showcase: at k=3 the greedy bound plus degree peeling prove
// optimality without expanding a single branch node). Sizes were
// established by the kernel pipeline and the kernel-disabled raw search
// independently (TestBBKernelMatchesRaw covers the mechanism) and are
// locked as regression values.
func TestCheckedInInstancesSolveExactly(t *testing.T) {
	for _, tc := range []struct {
		file     string
		n, m     int
		wantSize map[int]int
	}{
		{"gnm200.clq", 200, 800, map[int]int{1: 4, 2: 5, 3: 5}},
		{"planted150.clq", 150, 930, map[int]int{1: 8, 2: 9, 3: 12}},
	} {
		g := loadInstance(t, tc.file, tc.n, tc.m)
		for k := 1; k <= 3; k++ {
			res, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.file, k, err)
			}
			if res.Size != tc.wantSize[k] {
				t.Errorf("%s k=%d: BB size %d, want %d", tc.file, k, res.Size, tc.wantSize[k])
			}
			if !g.IsKPlex(res.Set, k) || len(res.Set) != res.Size {
				t.Errorf("%s k=%d: invalid witness %v", tc.file, k, res.Set)
			}
			raw, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{DisableKernel: true})
			if err != nil {
				t.Fatalf("%s k=%d: raw: %v", tc.file, k, err)
			}
			if raw.Size != res.Size {
				t.Errorf("%s k=%d: kernel pipeline %d != raw search %d", tc.file, k, res.Size, raw.Size)
			}
		}
	}
}

// MILP cross-check on induced subgraphs of the new instances — same
// protocol as TestGnm100BranchBoundMatchesMILP (and the same 5–6 vertex
// ceiling; sparse subgraphs stall the MILP beyond that).
func TestCheckedInInstancesMatchMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		file string
		n, m int
	}{
		{"gnm200.clq", 200, 800},
		{"planted150.clq", 150, 930},
	} {
		g := loadInstance(t, tc.file, tc.n, tc.m)
		for trial := 0; trial < 3; trial++ {
			size := 5 + rng.Intn(2)
			perm := rng.Perm(g.N())[:size]
			sub, _ := g.InducedSubgraph(perm)
			k := 1 + rng.Intn(3)
			res, err := kplex.BBOpt(context.Background(), sub, k, kplex.BBOptions{})
			if err != nil {
				t.Fatalf("%s trial %d: BB: %v", tc.file, trial, err)
			}
			enc, err := qubo.FormulateMKP(sub, k, 2)
			if err != nil {
				t.Fatalf("%s trial %d: formulate: %v", tc.file, trial, err)
			}
			milpRes, err := milp.Solve(enc.Model.Linearize(), milp.Options{})
			if err != nil {
				t.Fatalf("%s trial %d: milp: %v", tc.file, trial, err)
			}
			if !milpRes.Optimal {
				t.Fatalf("%s trial %d: MILP did not prove optimality", tc.file, trial)
			}
			set, valid := enc.DecodeValid(milpRes.X)
			if !valid {
				t.Fatalf("%s trial %d: MILP optimum decodes invalid", tc.file, trial)
			}
			if len(set) != res.Size {
				t.Errorf("%s trial %d (n=%d k=%d): BB says %d, MILP says %d",
					tc.file, trial, size, k, res.Size, len(set))
			}
		}
	}
}
