package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// Execute runs one wire request on its already built graph g and
// renders the outcome in wire form. It is the one place a wire
// algorithm is configured and run: the daemon's /v1/solve handler calls
// it on a cache miss, and cmd/qmkp calls it for every wire algorithm,
// from flags or -json-in, so one algorithm name means one configuration
// on both front ends.
//
// Cancellation and deadline on ctx are honoured at the solver's
// probe/try/shot/wave boundaries; on cancellation the best-so-far
// result comes back alongside an error wrapping core.ErrCanceled —
// callers classify it with api.HTTPStatus / api.ExitCode and the
// result's cost accounting is still populated.
//
// Every witness is checked against g before it leaves (checkWitness):
// a solver bug surfaces as an internal error, never as a wrong answer.
func Execute(ctx context.Context, req *api.SolveRequest, g *graph.Graph, ob obs.Obs) (*api.SolveResult, error) {
	out := &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	var err error
	switch req.Algo {
	case api.AlgoQMKP:
		var res core.MKPResult
		res, err = core.SolveMKP(ctx, g, core.Spec{
			Algo: core.AlgoMKP, K: req.K,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(req.EffectiveSeed())), UseClassicalBounds: true},
			Obs:  ob,
		})
		out.Size = res.Size
		out.Set = api.OneBased(res.Set)
		out.Found = res.Size > 0
		out.OracleCalls = res.OracleCalls
		out.Gates = res.Gates
		out.QPUTimeNS = int64(res.QPUTime)
		out.ErrorProbability = res.ErrorProbability
		out.Progress = wireProgress(res.Progress)
		if res.FirstFeasible != nil {
			pp := wirePoint(*res.FirstFeasible)
			out.FirstFeasible = &pp
		}
	case api.AlgoQTKP:
		var res core.TKPResult
		res, err = core.SolveTKP(ctx, g, core.Spec{
			Algo: core.AlgoTKP, K: req.K, T: req.T,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(req.EffectiveSeed()))},
			Obs:  ob,
		})
		out.Size = len(res.Set)
		out.Set = api.OneBased(res.Set)
		out.Found = res.Found
		out.OracleCalls = res.OracleCalls
		out.Gates = res.Gates
		out.QPUTimeNS = int64(res.QPUTime)
		out.ErrorProbability = res.ErrorProbability
	case api.AlgoQAMKP:
		p := req.EffectiveAnneal()
		var res core.QAResult
		res, err = core.SolveAnneal(ctx, g, core.Spec{
			Algo: core.AlgoAnneal, K: req.K,
			Anneal: &core.AnnealOptions{R: p.R, Shots: p.Shots, DeltaT: p.DeltaT, Seed: req.EffectiveSeed()},
			Obs:    ob,
		})
		out.Size = res.Size
		out.Set = api.OneBased(res.Set)
		out.Found = res.Size > 0
		out.Valid = &res.Valid
	case api.AlgoBB:
		var res kplex.Result
		res, err = kplex.BBOpt(ctx, g, req.K, kplex.BBOptions{Obs: ob})
		out.Size = res.Size
		out.Set = api.OneBased(res.Set)
		out.Found = res.Size > 0
		out.Nodes = res.Nodes
		if errors.Is(err, kplex.ErrCanceled) {
			// Re-home the classical engine's sentinel under the API
			// taxonomy so exit-code and status mapping see one chain.
			err = fmt.Errorf("%w (bb): %w", core.ErrCanceled, err)
		}
	case api.AlgoGreedy:
		set := kplex.Greedy(g, min(req.K, g.N()))
		out.Size = len(set)
		out.Set = api.OneBased(set)
		out.Found = len(set) > 0
	default:
		return nil, fmt.Errorf("server: unknown algorithm %q: %w", req.Algo, core.ErrBadSpec)
	}
	if werr := checkWitness(g, out); werr != nil {
		return nil, werr
	}
	return out, err
}

// checkWitness verifies the answer Execute is about to return: Size
// equals len(Set), the members are distinct vertices of g, and the set
// is a k-plex unless the result marks itself invalid (a qaMKP
// assignment that decodes to no k-plex). It costs O(|S|²). A failure is
// a solver bug, so the error wraps no sentinel: exit 1 or HTTP 500,
// and the cache never stores it.
func checkWitness(g *graph.Graph, res *api.SolveResult) error {
	if res.Size != len(res.Set) {
		return fmt.Errorf("server: %s answer has size %d but %d members", res.Algo, res.Size, len(res.Set))
	}
	set := api.ZeroBased(res.Set)
	for i, v := range set {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("server: %s answer names vertex %d, outside 1..%d", res.Algo, v+1, g.N())
		}
		for _, u := range set[:i] {
			if u == v {
				return fmt.Errorf("server: %s answer names vertex %d twice", res.Algo, v+1)
			}
		}
	}
	if len(set) > 0 && (res.Valid == nil || *res.Valid) && !g.IsKPlex(set, res.K) {
		return fmt.Errorf("server: %s answer %v is not a %d-plex", res.Algo, res.Set, res.K)
	}
	return nil
}

// wirePoint converts one core progress point to wire form.
func wirePoint(p core.ProgressPoint) api.ProgressPoint {
	return api.ProgressPoint{
		T:        p.T,
		Found:    p.Found,
		Size:     p.Size,
		Set:      api.OneBased(p.Set),
		CumGates: p.CumGates,
	}
}

// wireProgress converts the probe stream.
func wireProgress(ps []core.ProgressPoint) []api.ProgressPoint {
	if ps == nil {
		return nil
	}
	out := make([]api.ProgressPoint, len(ps))
	for i, p := range ps {
		out[i] = wirePoint(p)
	}
	return out
}
