package club

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/grover"
	"repro/internal/qsim"
)

// QTClub is the n-club analogue of qTKP: Grover search for an n-club of
// size ≥ T. Returns the verified set, or Found=false. Each call builds a
// 2^n-entry truth table and a Grover register of n qubits, so it
// refuses n past qsim.MaxStatevectorQubits, the widest register the
// Grover engine accepts.
func QTClub(g *graph.Graph, L, T int, rng *rand.Rand) (Result, bool, error) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := g.N()
	if n > qsim.MaxStatevectorQubits {
		return Result{}, false, fmt.Errorf("club: search sweeps 2^n subsets, needs n ≤ %d, got n=%d", qsim.MaxStatevectorQubits, n)
	}
	// The semantic fast path answers the same predicate as the circuit
	// (differentially tested); the circuit is still compiled for gate
	// accounting either way.
	orc, err := BuildOracleOpts(g, L, T, Options{FastPath: true})
	if err != nil {
		return Result{}, false, err
	}
	tt := orc.TruthTable()
	m := 0
	for mask := range tt {
		if tt[mask] {
			m++
		}
	}
	pred := func(mask uint64) bool { return tt[mask] }
	if m == 0 {
		return Result{}, false, nil
	}
	sr := grover.Search(n, pred, m, int64(orc.TotalGates()), 3, rng)
	if !sr.Found {
		return Result{}, false, nil
	}
	return Result{
		Set:   graph.MaskSubset(sr.Mask, n),
		Size:  len(graph.MaskSubset(sr.Mask, n)),
		Nodes: int64(sr.Stats.OracleCalls),
	}, true, nil
}

// QMaxClub is the n-club analogue of qMKP: binary search over QTClub.
func QMaxClub(g *graph.Graph, L int, rng *rand.Rand) (Result, error) {
	n := g.N()
	if n < 1 {
		return Result{}, fmt.Errorf("club: empty graph")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var best Result
	lo, hi := 1, n
	for lo <= hi {
		T := (lo + hi + 1) / 2
		res, found, err := QTClub(g, L, T, rng)
		if err != nil {
			return Result{}, err
		}
		best.Nodes += res.Nodes
		if found {
			if res.Size > best.Size {
				best.Set = res.Set
				best.Size = res.Size
			}
			lo = res.Size + 1
			if lo <= T {
				lo = T + 1
			}
		} else {
			hi = T - 1
		}
	}
	return best, nil
}
