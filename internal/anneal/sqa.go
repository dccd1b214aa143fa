package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/qubo"
)

// SQA runs path-integral simulated quantum annealing on the Ising form of
// the model: P = sqaTrotter replicas of the spin system, coupled along
// the imaginary-time direction with strength
//
//	J⊥(Γ) = -(P/(2β))·ln tanh(βΓ/P)
//
// while the transverse field Γ decays from sqaGamma0 to sqaGammaMin over
// the sweep schedule. Each sweep proposes one Metropolis flip per (slice,
// spin). The classical energy of every slice is tracked and the best
// assignment over all slices and shots is returned.
//
// This is the reproduction's stand-in for the D-Wave Advantage QPU: the
// per-shot sweep count plays the paper's annealing time Δt, and the shot
// count its sample count s. Cancellation is honoured at shot boundaries,
// returning the best result over completed shots plus an error wrapping
// ctx.Err().
func SQA(ctx context.Context, m *qubo.Model, p Params) (Result, error) {
	if m.N() == 0 {
		return Result{}, fmt.Errorf("anneal: empty model")
	}
	p = p.withDefaults()
	is := m.ToIsing()
	return sqaIsing(ctx, is, p, nil)
}

// isingAdj is the flattened neighbour structure for fast field updates.
type isingAdj struct {
	n      int
	offset float64
	h      []float64
	adj    [][]qubo.Weighted
}

func compileIsing(is *qubo.Ising) *isingAdj {
	a := &isingAdj{n: is.N, offset: is.Offset, h: is.H, adj: make([][]qubo.Weighted, is.N)}
	for k, w := range is.J {
		i, j := k[0], k[1]
		a.adj[i] = append(a.adj[i], qubo.Weighted{J: j, W: w})
		a.adj[j] = append(a.adj[j], qubo.Weighted{J: i, W: w})
	}
	// Deterministic accumulation order: seeded trajectories must not
	// depend on map iteration order.
	for i := range a.adj {
		sort.Slice(a.adj[i], func(x, y int) bool { return a.adj[i][x].J < a.adj[i][y].J })
	}
	return a
}

// localField returns h_i + Σ_j J_ij s_j for slice spins s.
func (a *isingAdj) localField(s []int8, i int) float64 {
	f := a.h[i]
	for _, nb := range a.adj[i] {
		f += nb.W * float64(s[nb.J])
	}
	return f
}

// energy evaluates the Ising objective at spins s through the sorted
// adjacency, in index order. qubo.Ising.Energy sums its coupling map in
// iteration order, which varies run to run and would make recorded
// energies float-associate differently on every call; sampler results
// must be bit-reproducible under a fixed seed.
func (a *isingAdj) energy(s []int8) float64 {
	v := a.offset
	for i, h := range a.h {
		v += h * float64(s[i])
	}
	for i := range a.adj {
		si := float64(s[i])
		for _, nb := range a.adj[i] {
			if nb.J > i {
				v += nb.W * si * float64(s[nb.J])
			}
		}
	}
	return v
}

// sqaIsing runs the PIMC anneal. If unembed is non-nil, each slice's raw
// physical spins are mapped through it before energy accounting (used by
// the embedded sampler in internal/embedding via RunEmbeddedIsing); shots run
// on parallel workers, so unembed must be safe for concurrent use. Each
// shot anneals on its own RNG stream derived from Params.Seed and the
// shot index, and outcomes merge in shot order — results are
// bit-identical at any worker count.
func sqaIsing(ctx context.Context, is *qubo.Ising, p Params, unembed func([]int8) ([]bool, float64)) (Result, error) {
	a := compileIsing(is)
	return runShots(ctx, p, "sqa", func(shot int) shotOutcome {
		return sqaShot(a, p, unembed, shot)
	})
}

// sqaShot runs one PIMC shot on its own RNG stream and returns its best
// slice (earliest slice wins energy ties, as in a serial scan) plus every
// slice readout for the OnSample hook.
func sqaShot(a *isingAdj, p Params, unembed func([]int8) ([]bool, float64), shot int) shotOutcome {
	var out shotOutcome
	rng := rand.New(rand.NewSource(shotSeed(p.Seed, shot)))
	const P = sqaTrotter
	spins := make([][]int8, P)
	for sl := range spins {
		spins[sl] = make([]int8, a.n)
		for i := range spins[sl] {
			if rng.Intn(2) == 0 {
				spins[sl][i] = 1
			} else {
				spins[sl][i] = -1
			}
		}
	}
	for sweep := 0; sweep < p.Sweeps; sweep++ {
		gamma := gammaAt(p, sweep)
		beta := sqaBetaAt(p, sweep)
		// Ferromagnetic inter-slice coupling; stronger as Γ → 0.
		jPerp := -(float64(P) / (2 * beta)) * math.Log(math.Tanh(beta*gamma/float64(P)))
		for sl := 0; sl < P; sl++ {
			up := spins[(sl+1)%P]
			down := spins[(sl-1+P)%P]
			cur := spins[sl]
			for i := 0; i < a.n; i++ {
				si := float64(cur[i])
				dClassical := -2 * si * a.localField(cur, i) / float64(P)
				dQuantum := 2 * jPerp * si * float64(up[i]+down[i])
				d := dClassical + dQuantum
				out.proposed++
				if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
					out.accepted++
					cur[i] = -cur[i]
				}
			}
		}
		// Global (world-line) moves: flip spin i across every slice
		// at once. The inter-slice products are invariant, so the
		// energy change is purely classical — the standard PIMC move
		// that keeps the anneal ergodic once J⊥ has frozen the
		// slices together.
		for i := 0; i < a.n; i++ {
			var d float64
			for sl := 0; sl < P; sl++ {
				d += -2 * float64(spins[sl][i]) * a.localField(spins[sl], i) / float64(P)
			}
			out.proposed++
			if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
				out.accepted++
				for sl := 0; sl < P; sl++ {
					spins[sl][i] = -spins[sl][i]
				}
			}
		}
	}
	// Slice accounting: every slice's energy is recomputed from scratch
	// here (no incremental accumulation survives the sweeps), so the
	// recorded best is exact by construction — the same audit the SA path
	// enforces by reconciling on record.
	for sl := 0; sl < P; sl++ {
		var x []bool
		var e float64
		if unembed != nil {
			x, e = unembed(spins[sl])
		} else {
			x, e = qubo.SpinsToBits(spins[sl]), a.energy(spins[sl])
		}
		if out.best.X == nil || e < out.best.Energy {
			out.best = Sample{X: append([]bool(nil), x...), Energy: e}
		}
		if p.wantReadouts() {
			out.readouts = append(out.readouts, Sample{X: x, Energy: e})
		}
	}
	return out
}

// sqaBetaAt ramps the bath inverse temperature geometrically from 1 up to
// sqaBeta across the sweep schedule (annealed-temperature PIMC): early
// sweeps stay hot enough to escape penalty-term local minima, late sweeps
// freeze. A single-sweep shot runs straight at sqaBeta (a quench).
func sqaBetaAt(p Params, sweep int) float64 {
	if p.Sweeps == 1 {
		return sqaBeta
	}
	f := float64(sweep) / float64(p.Sweeps-1)
	return math.Pow(sqaBeta, f)
}

// gammaAt interpolates the transverse-field schedule linearly from
// sqaGamma0 down to sqaGammaMin. A single-sweep shot anneals straight at
// sqaGammaMin (a quantum quench), mirroring hardware minimum-Δt behaviour.
func gammaAt(p Params, sweep int) float64 {
	if p.Sweeps == 1 {
		return sqaGammaMin
	}
	f := float64(sweep) / float64(p.Sweeps-1)
	return sqaGamma0 + (sqaGammaMin-sqaGamma0)*f
}

// RunEmbeddedIsing exposes the PIMC core for callers that have already
// mapped a logical problem onto a physical Ising (internal/embedding): the
// unembed callback translates each physical slice back to a logical
// assignment and its logical energy. Cancellation is honoured at shot
// boundaries like the other samplers.
// As on real hardware, the physical coefficients are normalised to
// max |h|, |J| = 1 before annealing (the D-Wave auto-scale): chain
// couplings otherwise dwarf the fixed-β Monte-Carlo dynamics and freeze
// the anneal. Reported energies are unaffected — the unembed callback
// evaluates the ORIGINAL logical objective.
func RunEmbeddedIsing(ctx context.Context, is *qubo.Ising, p Params, unembed func([]int8) ([]bool, float64)) (Result, error) {
	if is.N == 0 {
		return Result{}, fmt.Errorf("anneal: empty Ising")
	}
	p = p.withDefaults()
	maxAbs := 0.0
	for _, h := range is.H {
		if a := math.Abs(h); a > maxAbs {
			maxAbs = a
		}
	}
	for _, j := range is.J {
		if a := math.Abs(j); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 1 {
		scaled := &qubo.Ising{N: is.N, Offset: is.Offset / maxAbs, H: make([]float64, is.N), J: make(map[[2]int]float64, len(is.J))}
		for i, h := range is.H {
			scaled.H[i] = h / maxAbs
		}
		for k, j := range is.J {
			scaled.J[k] = j / maxAbs
		}
		is = scaled
	}
	return sqaIsing(ctx, is, p, unembed)
}
