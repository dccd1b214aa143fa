package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/qubo"
)

// Algo selects the algorithm a Spec requests.
type Algo string

// The three contributed algorithms (paper Algorithms 2–4).
const (
	AlgoTKP    Algo = "qtkp"
	AlgoMKP    Algo = "qmkp"
	AlgoAnneal Algo = "qamkp"
)

// MaxGateVertices caps the gate-model entry points. The Grover engine
// itself holds only two amplitudes and a 2^n-bit marked set (3 MiB at
// 24 vertices), but every probe still sweeps the oracle predicate over
// all 2^n subsets, and Engine.State's on-demand dense copy costs 16·2^n
// bytes, so 24 vertices is the practical ceiling. It also keeps every
// gate-model instance within fastoracle.TableMaxVertices, so one k-plex
// table serves every probe. Larger instances return ErrTooLarge; the
// annealing path has no such cap.
const MaxGateVertices = 24

// Spec is a solve request. Each entry point reads only its own fields:
// K everywhere, T in SolveTKP, Gate in SolveTKP and SolveMKP, Anneal in
// SolveAnneal. Algo names the algorithm for the caller's bookkeeping; no
// entry point reads it. Obs carries the observability subsystem; its zero
// value is inert and costs nothing.
type Spec struct {
	Algo   Algo
	K      int
	T      int
	Gate   *GateOptions
	Anneal *AnnealOptions
	Obs    obs.Obs
}

// CheckRange is the range rule of the contributed algorithms on g: a
// non-empty graph, 1 ≤ k ≤ n and, for qTKP, 1 ≤ T ≤ n. Every entry
// point applies it first, naming its own algorithm; any other algo
// passes unchecked. A caller that shrinks g before solving (cmd/qmkp's
// co-pruning) applies it to the input graph, so the shrunken instance
// is never asked a question the input would have refused.
func CheckRange(g *graph.Graph, algo Algo, k, T int) error {
	if algo != AlgoTKP && algo != AlgoMKP && algo != AlgoAnneal {
		return nil
	}
	if g == nil || g.N() < 1 {
		return fmt.Errorf("core: empty graph: %w", ErrBadSpec)
	}
	n := g.N()
	if k < 1 || k > n {
		return fmt.Errorf("core: k=%d out of range [1,%d]: %w", k, n, ErrBadSpec)
	}
	if algo == AlgoTKP && (T < 1 || T > n) {
		return fmt.Errorf("core: T=%d out of range [1,%d]: %w", T, n, ErrBadSpec)
	}
	return nil
}

// gateSpecCheck applies the range rule and the gate-model size cap.
func gateSpecCheck(g *graph.Graph, algo Algo, k, T int) (int, error) {
	if err := CheckRange(g, algo, k, T); err != nil {
		return 0, err
	}
	n := g.N()
	if n > MaxGateVertices {
		return 0, fmt.Errorf("core: n=%d exceeds the %d-vertex gate-model cap: %w", n, MaxGateVertices, ErrTooLarge)
	}
	return n, nil
}

// isCtxErr reports whether err stems from context cancellation or
// deadline expiry, however deeply wrapped.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// canceled wraps a context-caused failure of one algorithm into the
// ErrCanceled sentinel, keeping the cause in the chain.
func canceled(algo Algo, err error) error {
	return fmt.Errorf("%w (%s): %w", ErrCanceled, algo, err)
}

// SolveTKP runs qTKP (Algorithm 2) under a context: find a k-plex of
// size ≥ spec.T or certify absence. A verified absence returns the
// fully-accounted result alongside ErrInfeasible, so "not found" and
// "found" are distinguishable without inspecting the result struct.
func SolveTKP(ctx context.Context, g *graph.Graph, spec Spec) (TKPResult, error) {
	n, err := gateSpecCheck(g, AlgoTKP, spec.K, spec.T)
	if err != nil {
		return TKPResult{}, err
	}
	o := spec.Gate.withDefaults(n)
	start := time.Now()
	src, err := newProbeSource(g, spec.K, o, spec.Obs.Metrics)
	if err != nil {
		return TKPResult{}, err
	}
	tr := spec.Obs.Trace
	var sp *obs.SpanHandle
	if tr.Enabled() {
		sp = tr.Start("qtkp", obs.Int("n", n), obs.Int("k", spec.K), obs.Int("T", spec.T))
	}
	orc, err := oracle.BuildOpts(g, spec.K, spec.T, oracle.Options{Metrics: spec.Obs.Metrics})
	if err != nil {
		sp.End()
		return TKPResult{}, err
	}
	res, err := src.probe(ctx, g, orc, o, spec.Obs)
	res.WallTime = time.Since(start)
	if sp != nil {
		sp.End(obs.Bool("found", res.Found), obs.Int("size", len(res.Set)))
	}
	if err != nil {
		if isCtxErr(err) {
			return res, canceled(AlgoTKP, err)
		}
		return res, err
	}
	if !res.Found {
		return res, fmt.Errorf("core: no %d-plex of size >= %d in the graph: %w", spec.K, spec.T, ErrInfeasible)
	}
	return res, nil
}

// SolveMKP runs qMKP (Algorithm 3) under a context: binary search for a
// maximum k-plex. The context is checked at every probe boundary and
// inside each probe's Grover try loop; on cancellation the result holds
// everything the completed probes established (best set, progress
// stream, cost accounting) alongside ErrCanceled.
func SolveMKP(ctx context.Context, g *graph.Graph, spec Spec) (MKPResult, error) {
	n, err := gateSpecCheck(g, AlgoMKP, spec.K, 0)
	if err != nil {
		return MKPResult{}, err
	}
	k := spec.K
	o := spec.Gate.withDefaults(n)
	start := time.Now()
	tr := spec.Obs.Trace
	mx := spec.Obs.Metrics

	src, err := newProbeSource(g, k, o, mx)
	if err != nil {
		return MKPResult{}, err
	}

	var root *obs.SpanHandle
	if tr.Enabled() {
		root = tr.Start("qmkp", obs.Int("n", n), obs.Int("k", k), obs.Bool("fastpath", src.tab != nil))
	}

	var out MKPResult
	missProb := 0.0
	// finish stamps the run-level accounting; called on every exit path
	// so cancelled runs report what they did complete.
	finish := func() {
		out.QPUTime = time.Duration(out.Gates) * GateLatency
		out.WallTime = time.Since(start)
		out.ErrorProbability = missProb
		if mx != nil {
			mx.Add("core.qmkp.probes", int64(len(out.Progress)))
			mx.Add("core.qmkp.oracle_calls", int64(out.OracleCalls))
			mx.Add("core.qmkp.gates", out.Gates)
			mx.SetGauge("core.qmkp.error_probability", missProb)
		}
		if root != nil {
			root.End(obs.Int("size", out.Size), obs.Int("probes", len(out.Progress)))
		}
	}

	lo, hi := 1, n
	if o.UseClassicalBounds {
		// One greedy run gives both the lower bound (its size) and the
		// witness behind it.
		set := kplex.Greedy(g, k)
		if len(set) > lo {
			lo = len(set) // a certified k-plex of this size exists
		}
		if ub := kplex.UpperBound(g, k); ub < hi {
			hi = ub
		}
		// The greedy witness itself is a valid answer if no probe beats it.
		if len(set) > out.Size {
			out.Set = set
			out.Size = len(set)
			if tr.Enabled() {
				// The service boundary streams this as the first
				// progressive answer, before any quantum probe runs.
				tr.Event("qmkp.greedy_seed", obs.Int("size", out.Size), obs.Int("lo", lo), obs.Int("hi", hi))
			}
		}
	}
	for lo <= hi { //ctx:boundary probe
		if cerr := ctx.Err(); cerr != nil {
			finish()
			return out, canceled(AlgoMKP, cerr)
		}
		T := (lo + hi + 1) / 2
		// The circuit is still compiled per probe: gate counts and QPU
		// time modelling come from it whichever source answers queries.
		orc, err := oracle.BuildOpts(g, k, T, oracle.Options{Metrics: mx})
		if err != nil {
			finish()
			return out, err
		}
		var sp *obs.SpanHandle
		if tr.Enabled() {
			sp = tr.Start("qmkp.probe", obs.Int("T", T), obs.Int("lo", lo), obs.Int("hi", hi))
		}
		probe, err := src.probe(ctx, g, orc, o, spec.Obs)
		// Cost performed so far counts even when the probe was cut short.
		out.OracleCalls += probe.OracleCalls
		out.Gates += probe.Gates
		if sp != nil {
			sp.End(obs.Bool("found", probe.Found), obs.Int("size", len(probe.Set)), obs.Int64("cum_gates", out.Gates))
		}
		if err != nil {
			finish()
			if isCtxErr(err) {
				return out, canceled(AlgoMKP, err)
			}
			return out, err
		}
		pt := ProgressPoint{
			T:          T,
			Found:      probe.Found,
			CumGates:   out.Gates,
			CumQPUTime: time.Duration(out.Gates) * GateLatency,
		}
		if probe.Found {
			pt.Size = len(probe.Set)
			pt.Set = probe.Set
			if len(probe.Set) > out.Size {
				out.Set = probe.Set
				out.Size = len(probe.Set)
			}
			// Per-run miss chance after MaxTries verified retries
			// (Section V-A's error metric).
			perTry := probe.ErrorProbability
			p := 1.0
			for i := 0; i < MaxTries; i++ {
				p *= perTry
			}
			missProb = 1 - (1-missProb)*(1-p)
			if out.FirstFeasible == nil {
				cp := pt
				out.FirstFeasible = &cp
				if tr.Enabled() {
					tr.Event("qmkp.first_feasible", obs.Int("T", T), obs.Int("size", pt.Size), obs.Int64("cum_gates", pt.CumGates))
				}
			}
			// The probe may overshoot T (a verified plex larger than
			// asked for); binary search resumes above what we hold.
			lo = pt.Size + 1
			if lo <= T {
				lo = T + 1
			}
		} else {
			hi = T - 1
		}
		out.Progress = append(out.Progress, pt)
	}
	finish()
	return out, nil
}

// SolveAnneal runs qaMKP (Algorithm 4) under a context: the QUBO
// reformulation annealed by anneal.SQA, the QPU stand-in, on the logical
// model. Cancellation is honoured at shot-batch boundaries; the best
// assignment over completed shots is decoded and returned alongside
// ErrCanceled.
func SolveAnneal(ctx context.Context, g *graph.Graph, spec Spec) (QAResult, error) {
	if err := CheckRange(g, AlgoAnneal, spec.K, 0); err != nil {
		return QAResult{}, err
	}
	o := spec.Anneal.annealDefaults()
	if !(o.R > 1) { // NaN included
		return QAResult{}, fmt.Errorf("core: penalty R=%v must exceed 1: %w", o.R, ErrBadSpec)
	}
	enc, err := qubo.FormulateMKP(g, spec.K, o.R)
	if err != nil {
		return QAResult{}, err
	}
	out := QAResult{
		Variables: enc.Model.N(),
		SlackVars: enc.NumSlackVars(),
	}
	tr := spec.Obs.Trace
	var sp *obs.SpanHandle
	if tr.Enabled() {
		sp = tr.Start("qamkp", obs.Int("n", g.N()), obs.Int("k", spec.K),
			obs.Int("shots", o.Shots), obs.Int("variables", out.Variables))
	}

	var bestValid []int
	res, runErr := anneal.SQA(ctx, enc.Model, anneal.Params{
		Shots:  o.Shots,
		Sweeps: o.DeltaT * SweepsPerMicrosecond,
		Seed:   o.Seed,
		OnSample: func(x []bool, _ float64) {
			set, valid := enc.DecodeValid(x)
			if valid && len(set) > len(bestValid) {
				bestValid = append([]int(nil), set...)
			}
		},
		Obs: spec.Obs,
	})
	if runErr != nil && !isCtxErr(runErr) {
		sp.End()
		return QAResult{}, runErr
	}

	// Decode whatever came back — on cancellation this is the best over
	// the completed shots, preserving the anytime semantics.
	out.Cost = res.Best.Energy
	out.Trace = res.BestAfterShot
	if res.Best.X != nil {
		out.Set, out.Valid = enc.DecodeValid(res.Best.X)
		out.Size = len(out.Set)
		if out.Valid && out.Size > len(bestValid) {
			bestValid = append([]int(nil), out.Set...)
		}
	}
	out.BestValidSet = bestValid
	if sp != nil {
		sp.End(obs.Int("size", out.Size), obs.Bool("valid", out.Valid), obs.Int("shots_merged", len(out.Trace)))
	}
	if runErr != nil {
		return out, canceled(AlgoAnneal, runErr)
	}
	return out, nil
}
