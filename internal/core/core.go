// Package core implements the paper's contributed algorithms:
//
//   - QTKP (Algorithm 2): Grover search with the compiled k-plex oracle,
//     finding a k-plex of size ≥ T.
//   - QMKP (Algorithm 3): binary search over T on top of QTKP, progressive —
//     it reports every probe, and in particular the first feasible
//     solution, which is at least half the optimum.
//   - QAMKP (Algorithm 4): the QUBO reformulation solved on the annealing
//     substrate (see qamkp.go).
//
// The context-first entry points — Solve, SolveTKP, SolveMKP, SolveAnneal
// in solve.go — are the primary API: they honour cancellation, return the
// typed sentinels of errors.go, and carry the observability subsystem
// (internal/obs) through every layer. QTKP/QMKP/QAMKP remain as thin
// background-context wrappers with their original signatures.
//
// The gate-based algorithms run on the hybrid simulator (exact, see
// DESIGN.md) and report three costs: wall-clock of the simulation, gate
// counts, and a modelled QPU time (gates × per-gate latency) that plays
// the role of the paper's microsecond figures.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/grover"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// GateOptions tunes QTKP/QMKP. The zero value is usable.
type GateOptions struct {
	// GateLatency is the modelled QPU time per gate. Default 1ns, which
	// puts the modelled times for the paper's 10-vertex instances in the
	// paper's hundreds-of-microseconds regime.
	GateLatency time.Duration
	// Rng drives measurements. Default: deterministic seed 1.
	Rng *rand.Rand
	// MaxTries bounds measure-and-verify repetitions per probe
	// (Section V-A: repetition drives the error probability to
	// π²/(4I)^(2c)). Default 3.
	MaxTries int
	// QuantumCounting, if true, estimates the solution count M with the
	// quantum counting algorithm instead of reading it off the oracle
	// truth table (both are faithful to the paper, which invokes
	// Brassard et al. for the estimate).
	QuantumCounting bool
	// CountingQubits is the phase-estimation register width for quantum
	// counting. Default n+3, capped at 14.
	CountingQubits int
	// UseClassicalBounds narrows the binary-search window with the cheap
	// classical bounds of internal/kplex before any quantum probe — the
	// paper's remark that "upper bounding techniques can also be
	// integrated into the binary search process of qMKP".
	UseClassicalBounds bool
	// DisableFastPath forces every oracle evaluation through circuit
	// replay. The default (fast path on, for n ≤ 64) answers the same
	// predicate semantically — truth tables, counts, and measurement
	// draws are bit-identical either way; only wall-clock changes.
	DisableFastPath bool
}

func (o *GateOptions) withDefaults(n int) GateOptions {
	out := GateOptions{}
	if o != nil {
		out = *o
	}
	if out.GateLatency == 0 {
		out.GateLatency = time.Nanosecond
	}
	if out.Rng == nil {
		out.Rng = rand.New(rand.NewSource(1))
	}
	if out.MaxTries == 0 {
		out.MaxTries = 3
	}
	if out.CountingQubits == 0 {
		out.CountingQubits = n + 3
		if out.CountingQubits > 14 {
			out.CountingQubits = 14
		}
	}
	return out
}

// TKPResult is the outcome of one QTKP run.
type TKPResult struct {
	Set   []int // the verified k-plex (nil if none found)
	Found bool

	M                int     // solution count used to size the iteration schedule
	Iterations       int     // Grover iterations applied
	OracleCalls      int     // oracle applications including verification
	Gates            int64   // total gates executed
	ErrorProbability float64 // probability the final measurement missed, per try

	QPUTime  time.Duration // modelled: Gates × GateLatency
	WallTime time.Duration // simulator wall clock
}

// fastPathOK reports whether the semantic fast path applies: the mask
// encoding is a single word and the caller did not opt out.
func fastPathOK(n int, o GateOptions) bool {
	return n <= 64 && !o.DisableFastPath
}

// QTKP finds a k-plex of size ≥ T in g, or reports absence (Algorithm 2).
// It is SolveTKP under context.Background() with verified absence folded
// back into (Found=false, nil error) — the original signature's
// convention. Use SolveTKP for cancellation and the ErrInfeasible
// distinction.
func QTKP(g *graph.Graph, k, T int, opt *GateOptions) (TKPResult, error) {
	res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: k, T: T, Gate: opt})
	if errors.Is(err, ErrInfeasible) {
		return res, nil
	}
	return res, err
}

// runTKP is one QTKP probe against a compiled oracle: truth-table sweep,
// exact count, then the Grover engine.
func runTKP(ctx context.Context, g *graph.Graph, orc *oracle.Oracle, o GateOptions, ob obs.Obs) (TKPResult, error) {
	if cerr := ctx.Err(); cerr != nil {
		// Check before the 2^n sweep: the truth table is the expensive
		// half of a probe and cannot be usefully partial.
		return TKPResult{}, cerr
	}
	// The 2^n sweep fans out over the internal/parallel worker pool
	// (semantic word arithmetic when the oracle's fast path is on); the
	// cached table then serves the Grover engine's one marked-set sweep
	// as a plain (concurrent-safe) lookup.
	tt := orc.TruthTable()
	m := 0
	for _, b := range tt {
		if b {
			m++
		}
	}
	pred := func(mask uint64) bool { return tt[mask] }
	return runTKPPred(ctx, g.N(), pred, m, int64(orc.TotalGates()), o, ob)
}

// runTKPPred is the engine behind QTKP once the predicate and its exact
// solution count are known, however they were obtained — a truth-table
// sweep (runTKP) or the cross-threshold cplex table (SolveMKP). Given the
// same (pred, m, gates, rng) it is bit-identical across those sources.
func runTKPPred(ctx context.Context, n int, pred func(uint64) bool, m int, gates int64, o GateOptions, ob obs.Obs) (TKPResult, error) {
	if n > 64 {
		// The Grover register and the measured-mask decoding are one-word;
		// gateSpecCheck keeps every caller far below this, but the engine
		// guards its own encoding rather than trusting the call sites.
		return TKPResult{}, fmt.Errorf("core: grover register needs n ≤ 64, got n=%d: %w", n, ErrTooLarge)
	}
	mEst := m
	if o.QuantumCounting {
		est, err := grover.CountMarked(n, o.CountingQubits, pred)
		if err != nil {
			return TKPResult{}, err
		}
		mEst = int(est + 0.5)
		if mEst < 1 && m > 0 {
			mEst = 1
		}
	}

	var res TKPResult
	res.M = mEst
	if m == 0 {
		// Nothing to find. A real run discovers absence by executing a
		// full Grover schedule (sized as if M=1), measuring, and failing
		// verification — so the probe costs as much as a successful one.
		// The wrong-conclusion probability of that procedure is the
		// chance a real solution would have survived the schedule
		// unmeasured, which is ≤ the usual π²/(4I)² bound.
		sr, err := grover.SearchObs(ctx, n, pred, 1, gates, 1, o.Rng, ob)
		res.Found = false
		res.Iterations = sr.Stats.Iterations
		res.OracleCalls = sr.Stats.OracleCalls
		res.Gates = sr.Stats.Gates
		res.QPUTime = time.Duration(res.Gates) * o.GateLatency
		return res, err
	}

	sr, err := grover.SearchObs(ctx, n, pred, mEst, gates, o.MaxTries, o.Rng, ob)
	res.Iterations = sr.Stats.Iterations
	res.OracleCalls = sr.Stats.OracleCalls
	res.Gates = sr.Stats.Gates
	res.ErrorProbability = sr.ErrorProbability
	res.QPUTime = time.Duration(res.Gates) * o.GateLatency
	if sr.Found {
		res.Found = true
		res.Set = graph.MaskSubset(sr.Mask, n)
	}
	return res, err
}

// ProgressPoint records one binary-search probe of QMKP — the progressive
// output stream the paper highlights.
type ProgressPoint struct {
	T     int   // probed threshold
	Found bool  // did the probe yield a k-plex of size ≥ T
	Size  int   // size of the returned plex (0 if none)
	Set   []int // the plex found at this probe (nil if none)

	CumGates   int64         // cumulative gates up to and including this probe
	CumQPUTime time.Duration // modelled cumulative QPU time
}

// MKPResult is the outcome of QMKP.
type MKPResult struct {
	Set  []int
	Size int

	Progress      []ProgressPoint
	FirstFeasible *ProgressPoint // first probe that produced any plex

	OracleCalls      int
	Gates            int64
	QPUTime          time.Duration
	WallTime         time.Duration
	ErrorProbability float64 // union bound over probes that found solutions
}

// QMKP finds a maximum k-plex by binary search over QTKP (Algorithm 3).
// It is SolveMKP under context.Background(); use SolveMKP for
// cancellation with best-so-far results and typed errors.
func QMKP(g *graph.Graph, k int, opt *GateOptions) (MKPResult, error) {
	return SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: k, Gate: opt})
}

// OracleBreakdown compiles the oracle for (g, k, T) and returns the
// per-component gate counts (graph encoding, degree count, degree
// comparison, size determination) of one oracle call — the data behind the
// paper's Table IV.
func OracleBreakdown(g *graph.Graph, k, T int) (map[string]int, error) {
	orc, err := oracle.Build(g, k, T)
	if err != nil {
		return nil, err
	}
	return orc.ComponentGates(), nil
}
