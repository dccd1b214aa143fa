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

// Execute runs one wire request against the solver stack and renders
// the outcome in wire form. It is the single dispatch point shared by
// the daemon's /v1/solve handler and cmd/qmkp's -json-in/-json-out
// mode, so CLI and service speak byte-identical schemas.
//
// Cancellation and deadline on ctx are honoured at the solver's
// probe/try/shot/wave boundaries; on cancellation the best-so-far
// result comes back alongside an error wrapping core.ErrCanceled —
// callers classify it with api.HTTPStatus / api.ExitCode and the
// result's cost accounting is still populated.
func Execute(ctx context.Context, req *api.SolveRequest, ob obs.Obs) (*api.SolveResult, error) {
	g, err := req.Graph.Build()
	if err != nil {
		return nil, err
	}
	return execute(ctx, req, g, ob)
}

// execute is Execute on the request's already built graph g, so the
// daemon, which builds g once for the canonical form, does not build it
// again on a cache miss.
func execute(ctx context.Context, req *api.SolveRequest, g *graph.Graph, ob obs.Obs) (*api.SolveResult, error) {
	seed := effectiveSeed(req)
	out := &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	switch req.Algo {
	case api.AlgoQMKP:
		res, err := core.SolveMKP(ctx, g, core.Spec{
			Algo: core.AlgoMKP, K: req.K,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(seed)), UseClassicalBounds: true},
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
		return out, err
	case api.AlgoQTKP:
		res, err := core.SolveTKP(ctx, g, core.Spec{
			Algo: core.AlgoTKP, K: req.K, T: req.T,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(seed))},
			Obs:  ob,
		})
		out.Size = len(res.Set)
		out.Set = api.OneBased(res.Set)
		out.Found = res.Found
		out.OracleCalls = res.OracleCalls
		out.Gates = res.Gates
		out.QPUTimeNS = int64(res.QPUTime)
		out.ErrorProbability = res.ErrorProbability
		return out, err
	case api.AlgoQAMKP:
		p := annealParams(req)
		res, err := core.SolveAnneal(ctx, g, core.Spec{
			Algo: core.AlgoAnneal, K: req.K,
			Anneal: &core.AnnealOptions{R: p.R, Shots: p.Shots, DeltaT: p.DeltaT, Seed: seed},
			Obs:    ob,
		})
		out.Size = res.Size
		out.Set = api.OneBased(res.Set)
		out.Found = res.Size > 0
		valid := res.Valid
		out.Valid = &valid
		return out, err
	case api.AlgoBB:
		res, err := kplex.BBOpt(ctx, g, req.K, kplex.BBOptions{Obs: ob})
		out.Size = res.Size
		out.Set = api.OneBased(res.Set)
		out.Found = res.Size > 0
		out.Nodes = res.Nodes
		if errors.Is(err, kplex.ErrCanceled) {
			// Re-home the classical engine's sentinel under the API
			// taxonomy so exit-code and status mapping see one chain.
			err = fmt.Errorf("%w (bb): %w", core.ErrCanceled, err)
		}
		return out, err
	case api.AlgoGreedy:
		k := req.K
		if k > g.N() {
			k = g.N()
		}
		set := kplex.Greedy(g, k)
		out.Size = len(set)
		out.Set = api.OneBased(set)
		out.Found = len(set) > 0
		return out, nil
	}
	return nil, fmt.Errorf("server: unknown algorithm %q: %w", req.Algo, core.ErrBadSpec)
}

// effectiveSeed normalizes the request seed (0 means the default seed
// 1, matching cmd/qmkp's -seed default). The cache key uses the same
// normalization so seed-0 and seed-1 requests share an entry.
func effectiveSeed(req *api.SolveRequest) int64 {
	if req.Seed == 0 {
		return 1
	}
	return req.Seed
}

// annealParams applies the qaMKP defaults (R=2, 200 shots, Δt=5 —
// cmd/qmkp's flag defaults) to an optional wire AnnealParams.
func annealParams(req *api.SolveRequest) api.AnnealParams {
	p := api.AnnealParams{R: 2, Shots: 200, DeltaT: 5}
	if req.Anneal != nil {
		if req.Anneal.R != 0 {
			p.R = req.Anneal.R
		}
		if req.Anneal.Shots != 0 {
			p.Shots = req.Anneal.Shots
		}
		if req.Anneal.DeltaT != 0 {
			p.DeltaT = req.Anneal.DeltaT
		}
	}
	return p
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
