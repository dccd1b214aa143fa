package anneal

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/qubo"
)

// HybridParams configures the hybrid solver.
type HybridParams struct {
	// MinRuntime is the solver's runtime contract: it keeps improving
	// until at least this much wall clock has elapsed (the D-Wave Hybrid
	// service has a 3 s floor; default here 50 ms so tests stay fast).
	MinRuntime time.Duration
	Seed       int64
	// Obs carries the observability subsystem; the hybrid loop emits
	// one "anneal.hybrid.round" event per improvement round. Because
	// the round count is wall-clock driven (the MinRuntime contract),
	// hybrid traces are NOT covered by the bit-identical determinism
	// guarantee — unlike every fixed-budget sampler above.
	Obs obs.Obs
}

// HybridResult is the hybrid solver outcome.
type HybridResult struct {
	Best    Sample
	Elapsed time.Duration
	Rounds  int
}

// hybridRestarts is the number of SA restarts per improvement round.
const hybridRestarts = 8

// Hybrid is the stand-in for the D-Wave Hybrid BQM solver: a portfolio of
// annealing restarts and steepest-descent polish that honours a minimum
// runtime contract and returns the best assignment found. On the paper's
// problem sizes it is essentially always optimal, matching the single
// near-optimal star the figures show for haMKP. Cancellation is honoured
// at round boundaries (and inside each round's SA fan-out), returning the
// best assignment found so far plus an error wrapping ctx.Err(). The
// MinRuntime contract yields to cancellation.
func Hybrid(ctx context.Context, m *qubo.Model, p HybridParams) (HybridResult, error) {
	if m.N() == 0 {
		return HybridResult{}, fmt.Errorf("anneal: empty model")
	}
	if p.MinRuntime <= 0 {
		p.MinRuntime = 50 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	c := m.Compile()
	start := time.Now()
	var out HybridResult
	seed := p.Seed
	//ctx:boundary round
	for out.Rounds == 0 || time.Since(start) < p.MinRuntime { //lint:allow walltime MinRuntime is the solver's documented wall-clock contract (the D-Wave Hybrid floor); rounds are seeded deterministically within it
		if cerr := ctx.Err(); cerr != nil {
			out.Elapsed = time.Since(start)
			return out, fmt.Errorf("anneal: hybrid canceled after %d rounds: %w", out.Rounds, cerr)
		}
		out.Rounds++
		// Annealed candidates... (SA's own trace span would interleave
		// nondeterministically with the round events, so only metrics
		// flow through; the hybrid path is wall-clock driven anyway.)
		res, err := SA(ctx, m, Params{Shots: hybridRestarts, Sweeps: 64, Seed: seed, Obs: obs.Obs{Metrics: p.Obs.Metrics}})
		if err != nil {
			// Fold whatever the interrupted fan-out completed before
			// handing back the best-so-far.
			if res.Best.X != nil && (out.Best.X == nil || res.Best.Energy < out.Best.Energy) {
				out.Best = Sample{X: append([]bool(nil), res.Best.X...), Energy: res.Best.Energy}
			}
			out.Elapsed = time.Since(start)
			return out, err
		}
		seed += hybridRestarts + 1
		// ...polished to local optimality.
		x := append([]bool(nil), res.Best.X...)
		energy := SteepestDescent(c, x)
		if out.Best.X == nil || energy < out.Best.Energy {
			out.Best = Sample{X: x, Energy: energy}
		}
		if p.Obs.Trace.Enabled() {
			p.Obs.Trace.Event("anneal.hybrid.round", obs.Int("round", out.Rounds), obs.F64("best_energy", out.Best.Energy))
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}
