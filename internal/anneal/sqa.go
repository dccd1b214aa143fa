package anneal

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
	// exact reports that every local-field sum of the model is exact in
	// float64 (exactFields), so the slices keep their fields and update
	// them on each accepted flip instead of recomputing them per
	// proposal.
	exact bool
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
	a.exact = exactFields(a.h, a.adj)
	return a
}

// exactFields reports whether every local field h_i + Σ_j J_ij·s_j, and
// every partial sum of it, is exact in float64 for every spin
// assignment s. It holds when every coefficient is an integer multiple
// of one 2^-e (e ≥ 0) and, for each i, (|h_i| + 2·Σ_j |J_ij|)·2^e < 2^52.
// Every value a field takes, recomputed in adjacency order or updated
// by 2·s_j·J_ij after a neighbour's flip, is then an integer multiple
// of 2^-e below 2^53·2^-e in magnitude, which float64 holds exactly, so
// the two give the same field bit for bit. A non-finite coefficient
// fails the rule.
func exactFields(h []float64, adj [][]qubo.Weighted) bool {
	e := 0
	for i, hi := range h {
		if !finite(hi) {
			return false
		}
		e = max(e, dyadicExp(hi))
		for _, nb := range adj[i] {
			if !finite(nb.W) {
				return false
			}
			e = max(e, dyadicExp(nb.W))
		}
	}
	// In units of 2^-e every term is an integer, so the sum is exact
	// until it reaches 2^52, and rounding, being monotone, keeps it at
	// or above 2^52 once the exact sum gets there.
	const limit = 1 << 52
	for i, hi := range h {
		sum := math.Ldexp(math.Abs(hi), e)
		for _, nb := range adj[i] {
			sum += 2 * math.Ldexp(math.Abs(nb.W), e)
		}
		if sum >= limit {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// dyadicExp returns the least e at which the finite x is an integer
// multiple of 2^-e: negative for multiples of 2, and -11 for zero,
// below that of every nonzero float64.
func dyadicExp(x float64) int {
	frac, exp := math.Frexp(x) // x = frac·2^exp; frac has at most 53 significant bits
	return 53 - exp - bits.TrailingZeros64(uint64(math.Abs(frac)*(1<<53)))
}

// localField returns h_i + Σ_j J_ij s_j for slice spins s.
func (a *isingAdj) localField(s []int8, i int) float64 {
	f := a.h[i]
	for _, nb := range a.adj[i] {
		f += nb.W * float64(s[nb.J])
	}
	return f
}

// flipField brings the kept fields fld of slice s up to date after spin
// i flipped (s[i] holds its new value): each neighbour's field gains
// 2·s_i·J_ij, exactly, on a model exactFields admits.
func (a *isingAdj) flipField(fld []float64, s []int8, i int) {
	d := 2 * float64(s[i])
	for _, nb := range a.adj[i] {
		fld[nb.J] += d * nb.W
	}
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

// sqaSchedule holds β and J⊥ for every sweep of a run; all its shots
// read the same values.
type sqaSchedule struct {
	beta, jPerp []float64
}

func newSQASchedule(p Params) sqaSchedule {
	const P = sqaTrotter
	s := sqaSchedule{beta: make([]float64, p.Sweeps), jPerp: make([]float64, p.Sweeps)}
	for sweep := range s.beta {
		gamma := gammaAt(p, sweep)
		beta := sqaBetaAt(p, sweep)
		s.beta[sweep] = beta
		// Ferromagnetic inter-slice coupling; stronger as Γ → 0.
		s.jPerp[sweep] = -(float64(P) / (2 * beta)) * math.Log(math.Tanh(beta*gamma/float64(P)))
	}
	return s
}

// expMemoBits sizes the exp memo: 2^12 slots, 96 KB per worker.
const expMemoBits = 12

// expMemo caches exp(-β·d) under the bit patterns of its arguments, so a
// hit returns exactly what math.Exp returned for them: the table's
// contents can change how long a proposal takes, never its outcome. It
// is direct-mapped, and a miss overwrites its slot. β enters as its
// tag, betaTag(β), a bijection of its bits. An empty slot reads as
// tag = d = +0, which is never looked up: only d > 0 takes an exp.
type expMemo struct {
	slot [1 << expMemoBits]struct {
		tag, d uint64
		v      float64
	}
}

// betaTag is β's key in the memo: its bits times an odd constant, which
// maps distinct bit patterns to distinct tags and spreads them for the
// slot hash.
func betaTag(beta float64) uint64 { return math.Float64bits(beta) * 0x9E3779B97F4A7C15 }

// exp returns exp(-beta·d) for tag = betaTag(beta).
func (m *expMemo) exp(tag uint64, beta, d float64) float64 {
	db := math.Float64bits(d)
	e := &m.slot[(db^tag)*0xBF58476D1CE4E5B9>>(64-expMemoBits)]
	if e.d != db || e.tag != tag {
		e.tag, e.d, e.v = tag, db, math.Exp(-beta*d)
	}
	return e.v
}

// sqaWorker is one pool worker's state, reused across the shots it
// runs: the Trotter slices' spins, their kept local fields (exact
// models only) and the exp memo. Its size depends on the model alone,
// never on Shots or Sweeps.
type sqaWorker struct {
	spins  [sqaTrotter][]int8
	fields [sqaTrotter][]float64 // nil unless the model's fields are exact
	memo   expMemo
}

func newSQAWorker(a *isingAdj) *sqaWorker {
	w := new(sqaWorker)
	for sl := range w.spins {
		w.spins[sl] = make([]int8, a.n)
		if a.exact {
			w.fields[sl] = make([]float64, a.n)
		}
	}
	return w
}

// sqaIsing runs the PIMC anneal. If unembed is non-nil, each slice's raw
// physical spins are mapped through it before energy accounting (used by
// the embedded sampler in internal/embedding via RunEmbeddedIsing); shots run
// on parallel workers, so unembed must be safe for concurrent use, and
// it must not keep the spins it is handed, which the worker reuses.
// Each shot anneals on its own RNG stream derived from Params.Seed and
// the shot index, and outcomes merge in shot order — results are
// bit-identical at any worker count. The schedule is computed once per
// run; each worker keeps its spins, fields and exp memo across its
// shots.
func sqaIsing(ctx context.Context, is *qubo.Ising, p Params, unembed func([]int8) ([]bool, float64)) (Result, error) {
	a := compileIsing(is)
	sched := newSQASchedule(p)
	return runShots(ctx, p, "sqa", func() func(shot int) shotOutcome {
		w := newSQAWorker(a)
		return func(shot int) shotOutcome { return sqaShot(a, sched, w, p, unembed, shot) }
	})
}

// sqaShot runs one PIMC shot on its own RNG stream, in the worker's
// buffers, and returns its best slice (earliest slice wins energy ties,
// as in a serial scan) plus every slice readout for the OnSample hook.
// Every proposal computes its energy change d by the same expressions
// on either field path, and takes exp(-β·d) through the worker's memo;
// on a model whose fields are exact (isingAdj.exact) the fields are
// kept per slice and updated on accepted flips, otherwise recomputed
// per proposal. Both give the same d bit for bit, up to the sign of a
// zero field, which no accept decision sees. Spins are drawn afresh at
// the start, and fields derived from them, so nothing carries over from
// the worker's previous shot.
func sqaShot(a *isingAdj, sched sqaSchedule, w *sqaWorker, p Params, unembed func([]int8) ([]bool, float64), shot int) shotOutcome {
	var out shotOutcome
	rng := rand.New(rand.NewSource(shotSeed(p.Seed, shot)))
	const P = sqaTrotter
	spins := &w.spins
	for sl := range spins {
		for i := range spins[sl] {
			if rng.Intn(2) == 0 {
				spins[sl][i] = 1
			} else {
				spins[sl][i] = -1
			}
		}
		if fld := w.fields[sl]; fld != nil {
			for i := range fld {
				fld[i] = a.localField(spins[sl], i)
			}
		}
	}
	// field returns spin i's local field in slice sl, kept or recomputed.
	field := func(sl, i int) float64 {
		if fld := w.fields[sl]; fld != nil {
			return fld[i]
		}
		return a.localField(spins[sl], i)
	}
	for sweep := 0; sweep < p.Sweeps; sweep++ {
		beta, jPerp := sched.beta[sweep], sched.jPerp[sweep]
		tag := betaTag(beta)
		for sl := 0; sl < P; sl++ {
			up := spins[(sl+1)%P]
			down := spins[(sl-1+P)%P]
			cur := spins[sl]
			for i := 0; i < a.n; i++ {
				si := float64(cur[i])
				dClassical := -2 * si * field(sl, i) / float64(P)
				dQuantum := 2 * jPerp * si * float64(up[i]+down[i])
				d := dClassical + dQuantum
				out.proposed++
				if d <= 0 || rng.Float64() < w.memo.exp(tag, beta, d) {
					out.accepted++
					cur[i] = -cur[i]
					if fld := w.fields[sl]; fld != nil {
						a.flipField(fld, cur, i)
					}
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
				d += -2 * float64(spins[sl][i]) * field(sl, i) / float64(P)
			}
			out.proposed++
			if d <= 0 || rng.Float64() < w.memo.exp(tag, beta, d) {
				out.accepted++
				for sl := 0; sl < P; sl++ {
					spins[sl][i] = -spins[sl][i]
					if fld := w.fields[sl]; fld != nil {
						a.flipField(fld, spins[sl], i)
					}
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
	return sqaIsing(ctx, autoScale(is), p.withDefaults(), unembed)
}

// autoScale returns is divided through by max |h|, |J| when that exceeds
// 1, and is itself otherwise.
func autoScale(is *qubo.Ising) *qubo.Ising {
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
	if maxAbs <= 1 {
		return is
	}
	scaled := &qubo.Ising{N: is.N, Offset: is.Offset / maxAbs, H: make([]float64, is.N), J: make(map[[2]int]float64, len(is.J))}
	for i, h := range is.H {
		scaled.H[i] = h / maxAbs
	}
	for k, j := range is.J {
		scaled.J[k] = j / maxAbs
	}
	return scaled
}
