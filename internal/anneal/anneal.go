// Package anneal is the annealing substrate of the reproduction. It
// provides three samplers over QUBO models:
//
//   - SA: classical simulated annealing (the paper's SA baseline, run as
//     sweeps × shots exactly like its D-Wave-style interface).
//   - SQA: path-integral (Trotter) simulated quantum annealing with a
//     decaying transverse field — the stand-in for the D-Wave Advantage
//     QPU (see DESIGN.md substitution table). The per-shot sweep budget
//     plays the role of the paper's annealing time Δt.
//   - Hybrid: a greedy + annealing + polish portfolio with a minimum
//     runtime contract, standing in for the D-Wave Hybrid BQM solver.
//
// All samplers take their context first, are deterministic under a
// fixed seed and report a best-so-far trace per shot so the harness can
// draw the paper's cost-vs-runtime curves.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qubo"
)

// The fixed annealing schedules. SA ramps its inverse temperature
// geometrically from saBetaMin to saBetaMax; SQA anneals sqaTrotter
// Trotter slices while the transverse field decays linearly from
// sqaGamma0 to sqaGammaMin and the bath's inverse temperature rises
// geometrically from 1 to sqaBeta. The floats are typed so every
// schedule expression rounds as float64 arithmetic does.
const (
	saBetaMin   float64 = 0.1
	saBetaMax   float64 = 10
	sqaTrotter          = 8
	sqaGamma0   float64 = 3
	sqaGammaMin float64 = 0.05
	sqaBeta     float64 = 20
)

// Params configures a sampler. Zero values select documented defaults.
type Params struct {
	Shots  int   // independent anneals (default 1)
	Sweeps int   // Monte-Carlo sweeps per shot — the Δt analogue (default 1)
	Seed   int64 // RNG seed (default 1)

	// OnSample, when set, observes every end-of-shot readout (for SQA:
	// every Trotter slice) with its energy — the hook callers use to
	// track problem-specific quality (e.g. "best valid k-plex seen"),
	// which need not coincide with the best energy (Section IV-C).
	// Shots anneal on parallel workers, but the hook is always invoked
	// serially, in shot order (slice order within a shot), from the
	// caller's goroutine, so it needs no synchronization. It is the only
	// way a caller sees each readout's assignment: the Obs observer
	// below sees the same stream, energies only, as "anneal.sample"
	// events from the same serial merge loop.
	OnSample func(x []bool, energy float64)

	// Obs carries the unified observability subsystem (internal/obs):
	// the tracer receives one span per sampler run, a sample event per
	// readout and a shot event per completed shot — all emitted from
	// the serial shot-ordered merge, so sequence numbers are
	// deterministic at any worker count — and the metrics registry
	// accumulates proposal/accept counters and accept-rate gauges.
	// The zero value is inert.
	Obs obs.Obs
}

// wantReadouts reports whether per-readout samples must be carried back
// from the workers — either hook consumes them.
func (p Params) wantReadouts() bool {
	return p.OnSample != nil || p.Obs.Trace.Enabled()
}

func (p Params) withDefaults() Params {
	if p.Shots <= 0 {
		p.Shots = 1
	}
	if p.Sweeps <= 0 {
		p.Sweeps = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Sample is one assignment with its objective value.
type Sample struct {
	X      []bool
	Energy float64
}

// Result is a sampler outcome.
type Result struct {
	Best Sample
	// BestAfterShot[i] is the best energy seen in shots 0..i — the
	// anytime trace behind the paper's cost-vs-runtime figures.
	BestAfterShot []float64
}

// record folds a candidate into the running result.
func (r *Result) record(x []bool, energy float64) {
	if r.Best.X == nil || energy < r.Best.Energy {
		r.Best = Sample{X: append([]bool(nil), x...), Energy: energy}
	}
}

func (r *Result) closeShot() {
	r.BestAfterShot = append(r.BestAfterShot, r.Best.Energy)
}

func randomAssignment(rng *rand.Rand, n int) []bool {
	x := make([]bool, n)
	for i := range x {
		x[i] = rng.Intn(2) == 1
	}
	return x
}

// shotSeed derives the RNG seed of one shot from the sampler seed via a
// splitmix64-style mix, so every shot owns an independent, reproducible
// stream regardless of which worker runs it or in what order.
func shotSeed(seed int64, shot int) int64 {
	z := uint64(seed) + uint64(shot+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// shotOutcome is what one independent anneal hands back for the ordered
// merge: its best sample, every end-of-shot readout (in evaluation
// order, when a hook consumes them), and its Metropolis proposal
// accounting.
type shotOutcome struct {
	best     Sample
	readouts []Sample
	proposed int64 // Metropolis proposals made
	accepted int64 // proposals accepted
}

// mergeShots folds per-shot outcomes into a Result in shot order: the
// observer events and the OnSample hook fire serially, ties between
// equal energies resolve to the earliest shot (exactly as in a serial
// run), and BestAfterShot[i] covers shots 0..i. Shots whose done flag
// is false (abandoned on cancellation) are skipped entirely.
func mergeShots(shots []shotOutcome, done []bool, p Params, kind string) Result {
	var res Result
	tr := p.Obs.Trace
	var sp *obs.SpanHandle
	if tr.Enabled() {
		sp = tr.Start("anneal."+kind, obs.Int("shots", len(shots)), obs.Int("sweeps", p.Sweeps))
	}
	for shot, s := range shots {
		if done != nil && !done[shot] {
			continue
		}
		for _, r := range s.readouts {
			if tr.Enabled() {
				tr.Event("anneal.sample", obs.Int("shot", shot), obs.F64("energy", r.Energy))
			}
			if p.OnSample != nil {
				p.OnSample(r.X, r.Energy)
			}
		}
		res.record(s.best.X, s.best.Energy)
		res.closeShot()
		if tr.Enabled() {
			tr.Event("anneal.shot", obs.Int("shot", shot), obs.F64("best_energy", res.Best.Energy))
		}
	}
	if sp != nil {
		sp.End(obs.F64("best_energy", res.Best.Energy), obs.Int("merged", len(res.BestAfterShot)))
	}
	return res
}

// runShots fans the per-shot work onto the deterministic pool, checking
// the context at every shot boundary. newWorker is called once per pool
// worker and returns that worker's shot function, which may keep
// scratch across the shots it runs; a shot's outcome must depend on its
// index alone. Abandoned shots are excluded from the merge, so on
// cancellation the caller still gets the best result over every
// completed shot plus a wrapped ctx.Err().
func runShots(ctx context.Context, p Params, kind string, newWorker func() func(shot int) shotOutcome) (Result, error) {
	shots := make([]shotOutcome, p.Shots)
	done := make([]bool, p.Shots)
	parallel.ForScratch(p.Shots, 1, newWorker, func(run func(shot int) shotOutcome, lo, hi int) {
		for shot := lo; shot < hi; shot++ { //ctx:boundary shot
			if ctx.Err() != nil {
				return
			}
			shots[shot] = run(shot)
			done[shot] = true
		}
	})
	res := mergeShots(shots, done, p, kind)
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	emitShotMetrics(p, kind, shots, done, completed)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("anneal: %s canceled after %d of %d shots: %w", kind, completed, p.Shots, err)
	}
	return res, nil
}

// emitShotMetrics folds completed-shot proposal accounting into the
// metrics registry: totals plus an accept-rate gauge. All inputs are
// per-shot deterministic, and the fold runs in shot order, so the dump
// is bit-identical at any worker count.
func emitShotMetrics(p Params, kind string, shots []shotOutcome, done []bool, completed int) {
	mx := p.Obs.Metrics
	if mx == nil {
		return
	}
	var proposed, accepted int64
	for shot, s := range shots {
		if !done[shot] {
			continue
		}
		proposed += s.proposed
		accepted += s.accepted
	}
	mx.Add("anneal."+kind+".shots", int64(completed))
	mx.Add("anneal."+kind+".proposed", proposed)
	mx.Add("anneal."+kind+".accepted", accepted)
	if proposed > 0 {
		mx.SetGauge("anneal."+kind+".accept_rate", float64(accepted)/float64(proposed))
	}
}

// SA runs classical simulated annealing: per shot, a random start followed
// by Sweeps passes of single-flip Metropolis moves under a geometric
// inverse-temperature ramp saBetaMin → saBetaMax. Shots are independent
// anneals with seeds derived from Params.Seed and the shot index, so they
// run on parallel workers; results are bit-identical at any worker count.
// Cancellation is honoured at shot boundaries, returning the best result
// over completed shots plus an error wrapping ctx.Err().
func SA(ctx context.Context, m *qubo.Model, p Params) (Result, error) {
	if m.N() == 0 {
		return Result{}, fmt.Errorf("anneal: empty model")
	}
	p = p.withDefaults()
	c := m.Compile()
	return runShots(ctx, p, "sa", func() func(shot int) shotOutcome {
		return func(shot int) shotOutcome { return saShot(c, p, shot) }
	})
}

// saShot runs one annealing shot on its own RNG stream.
func saShot(c *qubo.Compiled, p Params, shot int) shotOutcome {
	rng := rand.New(rand.NewSource(shotSeed(p.Seed, shot)))
	order := make([]int, c.N)
	for i := range order {
		order[i] = i
	}
	x := randomAssignment(rng, c.N)
	energy := c.Energy(x)
	out := shotOutcome{best: Sample{X: append([]bool(nil), x...), Energy: energy}}
	for sweep := 0; sweep < p.Sweeps; sweep++ {
		beta := betaAt(p, sweep)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			delta := c.FlipDelta(x, i)
			out.proposed++
			if delta <= 0 || rng.Float64() < math.Exp(-beta*delta) {
				out.accepted++
				x[i] = !x[i]
				energy += delta
				if energy < out.best.Energy {
					// The incremental sum drifts over thousands of
					// sweeps; reconcile against the exact objective
					// before recording, so Result.Best.Energy always
					// equals the true energy of Result.Best.X (the
					// measure-and-verify loops assume exactness).
					energy = c.Energy(x)
					if energy < out.best.Energy {
						out.best = Sample{X: append([]bool(nil), x...), Energy: energy}
					}
				}
			}
		}
	}
	if p.wantReadouts() {
		out.readouts = []Sample{{X: append([]bool(nil), x...), Energy: c.Energy(x)}}
	}
	return out
}

// betaAt interpolates the geometric SA schedule. A single-sweep shot runs
// straight at saBetaMax (a quench), matching the behaviour of
// hardware-style very short anneals.
func betaAt(p Params, sweep int) float64 {
	if p.Sweeps == 1 {
		return saBetaMax
	}
	f := float64(sweep) / float64(p.Sweeps-1)
	return saBetaMin * math.Pow(saBetaMax/saBetaMin, f)
}

// SteepestDescent repeatedly applies the best improving single flip until
// a local minimum; used by the hybrid solver's polish stage.
func SteepestDescent(c *qubo.Compiled, x []bool) float64 {
	energy := c.Energy(x)
	for {
		bestI, bestD := -1, 0.0
		for i := 0; i < c.N; i++ {
			if d := c.FlipDelta(x, i); d < bestD {
				bestI, bestD = i, d
			}
		}
		if bestI < 0 {
			return energy
		}
		x[bestI] = !x[bestI]
		energy += bestD
	}
}
