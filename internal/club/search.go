package club

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/qsim"
)

// QTClub is the n-club analogue of qTKP: Grover search for an n-club of
// size ≥ T. Returns the verified set, or Found=false. Each call builds a
// 2^n-entry truth table and a Grover register of n qubits, so it
// refuses n past qsim.MaxStatevectorQubits, the widest register the
// Grover engine accepts. ctx is honoured inside the truth-table sweep
// and the Grover try loop; a cut search returns the context's error.
func QTClub(ctx context.Context, g *graph.Graph, L, T int, rng *rand.Rand) (Result, bool, error) {
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
	orc, err := BuildOracle(g, L, T, Options{FastPath: true})
	if err != nil {
		return Result{}, false, err
	}
	tt, err := orc.TruthTable(ctx)
	if err != nil {
		return Result{}, false, err
	}
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
	sr, err := grover.Search(ctx, n, pred, m, int64(orc.TotalGates()), 3, rng, obs.Obs{})
	if err != nil {
		return Result{}, false, err
	}
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
// ctx is checked at every probe and passed into each; on cancellation
// the best club found so far comes back alongside the context's error.
func QMaxClub(ctx context.Context, g *graph.Graph, L int, rng *rand.Rand) (Result, error) {
	n := g.N()
	if n < 1 {
		return Result{}, fmt.Errorf("club: empty graph")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var best Result
	lo, hi := 1, n
	for lo <= hi { //ctx:boundary probe
		if err := ctx.Err(); err != nil {
			return best, err
		}
		T := (lo + hi + 1) / 2
		res, found, err := QTClub(ctx, g, L, T, rng)
		if err != nil {
			if ctx.Err() != nil {
				return best, err
			}
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
