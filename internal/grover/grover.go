// Package grover implements Grover search (Algorithm 1 of the paper) over
// the hybrid simulator, with the oracle evaluated as an exact ±1 phase per
// basis state (see internal/oracle and DESIGN.md for why this is
// gate-for-gate equivalent to simulating the full circuit).
//
// Because that phase is diagonal and the search starts from the uniform
// superposition, every marked basis state keeps one shared amplitude and
// every unmarked state another: the state never leaves the plane spanned
// by the uniform marked and unmarked superpositions, the two-dimensional
// picture behind BBHT (Boyer et al.). The engine therefore simulates
// exactly two real amplitudes plus the marked set, found by one sweep of
// the predicate over the 2^n basis states. An iteration is O(1), a
// measurement O(n); the dense 2^n statevector exists only on demand
// (Engine.State) and in the tests, which pin the plane against it.
//
// It also provides the two companions the paper relies on: quantum
// counting (Brassard et al.) to estimate the number of solutions M, and
// the BBHT exponential search loop for unknown M.
package grover

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qsim"
)

// Predicate reports whether a basis state is a solution. Implementations
// must be deterministic and safe for concurrent use: the marked-set sweep
// evaluates basis states from parallel workers. Truth-table lookups and
// pure functions qualify.
type Predicate func(mask uint64) bool

// basisGrain chunks per-basis-state fan-outs (the predicate sweep, the
// dense State copy); registers of ≤ 2^10 states stay serial.
const basisGrain = 1 << 10

// markedSet is the predicate's solution set over the 2^n basis states,
// packed one bit per state (bit i&63 of word i>>6), with the number of
// marked states before each word so rank queries are O(1). Its size does
// not depend on the number of solutions: 3 MiB at n = 24.
type markedSet struct {
	dim    int      // 2^n basis states
	words  []uint64 // membership bits
	before []uint32 // before[w] = marked states in words[:w]
	count  int      // M, the number of marked states
}

// sweepMarked evaluates pred once on every basis state of an n-qubit
// register. Chunks are whole words, so every word is written by exactly
// one worker and the bits are identical at any worker count; the
// prefix counts are a serial integer pass.
func sweepMarked(n int, pred Predicate) markedSet {
	if n < 1 || n > qsim.MaxStatevectorQubits {
		panic(fmt.Sprintf("grover: register width %d out of [1,%d]", n, qsim.MaxStatevectorQubits))
	}
	dim := 1 << uint(n)
	s := markedSet{dim: dim, words: make([]uint64, (dim+63)/64)}
	s.before = make([]uint32, len(s.words))
	parallel.For(len(s.words), basisGrain/64, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			base := w << 6
			var word uint64
			for b := 0; b < 64 && base+b < dim; b++ {
				if pred(uint64(base + b)) {
					word |= 1 << uint(b)
				}
			}
			s.words[w] = word
		}
	})
	for w, word := range s.words {
		s.before[w] = uint32(s.count)
		s.count += bits.OnesCount64(word)
	}
	return s
}

// has reports whether basis state i is marked.
func (s *markedSet) has(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// rank returns the number of marked states in [0, i].
func (s *markedSet) rank(i int) int {
	w := i >> 6
	return int(s.before[w]) + bits.OnesCount64(s.words[w]<<uint(63-i&63))
}

// last returns the highest basis state whose membership equals marked,
// or -1 if there is none.
func (s *markedSet) last(marked bool) int {
	for w := len(s.words) - 1; w >= 0; w-- {
		word := s.words[w]
		if !marked {
			word = ^word
			if top := s.dim - w<<6; top < 64 {
				word &= 1<<uint(top) - 1 // bits past the register are not states
			}
		}
		if word != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1
}

// groverStep applies one Grover iteration to the plane amplitudes of m
// marked and dim−m unmarked basis states: the oracle flips the marked
// sign, then diffusion reflects both about the mean amplitude (Fig. 4b/4c).
func groverStep(am, au float64, m, dim int) (float64, float64) {
	am = -am
	mean := (float64(m)*am + float64(dim-m)*au) / float64(dim)
	return 2*mean - am, 2*mean - au
}

// Stats accumulates the cost accounting of a search.
type Stats struct {
	Iterations  int   // Grover iterations applied
	OracleCalls int   // oracle applications (= iterations, plus verification shots)
	Gates       int64 // total gates executed (oracle + diffusion), modelled
}

// Engine drives Grover iterations for one fixed oracle. It holds the
// state in its invariant plane: am is the amplitude every marked basis
// state shares and au the one every unmarked state shares, so the
// simulated register is exactly the dense 2^n statevector with those two
// values, at O(1) cost per iteration. The gate ledger is that of the
// full circuit.
type Engine struct {
	n      int
	marked markedSet
	am, au float64
	stats  Stats
	perOrc int64 // gates per oracle call
	perDif int64 // gates per diffusion application
}

// NewEngine sweeps pred over the 2^n basis states once and prepares the
// equal superposition (Fig. 4a). gatesPerOracle is the gate cost of one
// oracle call, used for modelled QPU-time accounting (pass 0 if
// irrelevant). n must lie in [1, qsim.MaxStatevectorQubits], the widths
// State can copy out.
func NewEngine(n int, pred Predicate, gatesPerOracle int64) *Engine {
	e := &Engine{
		n:      n,
		marked: sweepMarked(n, pred),
		perOrc: gatesPerOracle,
		// Diffusion as H^⊗n X^⊗n C^{n-1}Z X^⊗n H^⊗n: 4n+1 gates.
		perDif: int64(4*n + 1),
	}
	e.Reset() // the initial H layer
	return e
}

// N returns the register width.
func (e *Engine) N() int { return e.n }

// State returns a dense copy of the simulated register: 2^n amplitudes,
// am on every marked basis state and au on every other. It costs O(2^n)
// time and memory per call and is meant for whole-distribution views
// such as Fig. 9's shot sampling; searching never builds it.
func (e *Engine) State() *qsim.Statevector {
	sv := qsim.NewStatevector(e.n)
	amp := sv.Amplitudes()
	cm, cu := complex(e.am, 0), complex(e.au, 0)
	parallel.For(len(amp), basisGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if e.marked.has(i) {
				amp[i] = cm
			} else {
				amp[i] = cu
			}
		}
	})
	return sv
}

// Stats returns a copy of the cost counters.
func (e *Engine) Stats() Stats { return e.stats }

// Iterate applies k Grover iterations (oracle sign flip + diffusion,
// Fig. 4b/4c).
func (e *Engine) Iterate(k int) {
	for i := 0; i < k; i++ {
		e.am, e.au = groverStep(e.am, e.au, e.marked.count, e.marked.dim)
		e.stats.Iterations++
		e.stats.OracleCalls++
		e.stats.Gates += e.perOrc + e.perDif
	}
}

// SuccessProbability returns the total probability mass on solution
// states, M·am².
func (e *Engine) SuccessProbability() float64 {
	return float64(e.marked.count) * e.am * e.am
}

// Measure samples one basis state. It draws one uniform r, as a dense
// measurement does, and returns the first basis state i whose cumulative
// probability c(i)·am² + (i+1−c(i))·au² exceeds r, where c(i) counts
// the marked states ≤ i; the cumulative is monotone, so a binary search
// finds it. If rounding leaves r past the total, it falls back to the
// last basis state with nonzero probability, never to a zero-amplitude
// state, which a measurement cannot produce.
func (e *Engine) Measure(rng *rand.Rand) uint64 {
	r := rng.Float64()
	pm, pu := e.am*e.am, e.au*e.au
	dim := e.marked.dim
	i := sort.Search(dim, func(i int) bool {
		c := e.marked.rank(i)
		return r < float64(c)*pm+float64(i+1-c)*pu
	})
	if i < dim {
		return uint64(i)
	}
	last := -1
	if pm > 0 {
		last = e.marked.last(true)
	}
	if pu > 0 {
		last = max(last, e.marked.last(false))
	}
	if last >= 0 {
		return uint64(last)
	}
	return uint64(dim - 1)
}

// Reset restores the equal superposition, one H layer of n gates.
func (e *Engine) Reset() {
	e.am = 1 / math.Sqrt(float64(e.marked.dim))
	e.au = e.am
	e.stats.Gates += int64(e.n)
}

// OptimalIterations returns ⌊π/4·√(N/M)⌋, the iteration count of
// Algorithm 1 line 5 (and of Algorithm 2 line 5) for N = 2^n states and M
// solutions.
func OptimalIterations(n, m int) int {
	if m <= 0 {
		return 0
	}
	space := math.Pow(2, float64(n))
	return int(math.Floor(math.Pi / 4 * math.Sqrt(space/float64(m))))
}

// Result is the outcome of a search.
type Result struct {
	Mask  uint64 // measured basis state
	Found bool   // predicate verified on Mask
	Stats Stats
	// ErrorProbability is the theoretical probability that the final
	// measurement misses every solution (1 - success mass), recorded
	// just before measurement.
	ErrorProbability float64
}

// Search runs Grover with a known solution count m: prepare, iterate the
// optimal count, measure, verify classically. If the measurement misses
// (the inherent error probability of the paper's Section V-A), it retries
// up to maxTries times, accumulating cost. maxTries ≤ 0 means 3.
// Cancellation is checked at try boundaries — an iteration batch is
// never abandoned half way, so the accumulated Stats stay
// meaningful — and reported by wrapping ctx.Err(). Each try emits one
// span carrying the iteration count and, on End, the measured mask and
// verification outcome; emission happens on the calling goroutine, so
// sequence numbers are deterministic.
func Search(ctx context.Context, n int, pred Predicate, m int, gatesPerOracle int64, maxTries int, rng *rand.Rand, o obs.Obs) (Result, error) {
	if maxTries <= 0 {
		maxTries = 3
	}
	e := NewEngine(n, pred, gatesPerOracle)
	iters := OptimalIterations(n, m)
	var res Result
	var err error
	for try := 0; try < maxTries; try++ { //ctx:boundary try
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("grover: search canceled after %d of %d tries: %w", try, maxTries, cerr)
			break
		}
		var sp *obs.SpanHandle
		if o.Trace.Enabled() {
			sp = o.Trace.Start("grover.try", obs.Int("try", try), obs.Int("iterations", iters))
		}
		if try > 0 {
			e.Reset()
		}
		e.Iterate(iters)
		res.ErrorProbability = 1 - e.SuccessProbability()
		mask := e.Measure(rng)
		// Classical verification of the measured candidate costs one
		// more predicate evaluation.
		e.stats.OracleCalls++
		res.Mask = mask
		hit := pred(mask)
		if sp != nil {
			sp.End(obs.Int64("mask", int64(mask)), obs.Bool("hit", hit),
				obs.F64("error_probability", res.ErrorProbability))
		}
		if hit {
			res.Found = true
			break
		}
	}
	res.Stats = e.Stats()
	if mx := o.Metrics; mx != nil {
		mx.Add("grover.oracle_calls", int64(res.Stats.OracleCalls))
		mx.Add("grover.gates", res.Stats.Gates)
		mx.Add("grover.iterations", int64(res.Stats.Iterations))
	}
	return res, err
}

// bbhtDraw draws the per-round Grover iteration count of the BBHT loop:
// j uniform over the nonnegative integers smaller than m ("choose j
// uniformly at random among the nonnegative integers smaller than m",
// Boyer et al., Section 3). For integral m that is [0, m); for fractional
// m the integers below m are [0, ⌈m⌉). In particular the first round
// (m = 1) must always draw j = 0 — a classical sample of the uniform
// superposition — which the earlier Intn(int(m)+1) off-by-one violated,
// inflating the iteration budget below the paper's accounting.
func bbhtDraw(rng *rand.Rand, m float64) int {
	hi := int(math.Ceil(m))
	if hi < 1 {
		hi = 1
	}
	return rng.Intn(hi)
}

// SearchUnknown runs the BBHT exponential search for an unknown solution
// count: iterate j ~ Uniform[0, m) Grover steps with m growing
// geometrically (factor 6/5), measure, verify. It gives up once the
// iterations spent reach 3·√N, above BBHT's (9/4)·√N budget, and reports
// Found = false. That "no solution" verdict is wrong only with the
// constant probability BBHT's analysis bounds; callers that need exact
// absence count M classically, as core does from the truth table.
func SearchUnknown(n int, pred Predicate, gatesPerOracle int64, rng *rand.Rand) Result {
	e := NewEngine(n, pred, gatesPerOracle)
	space := math.Pow(2, float64(n))
	budget := 3 * math.Sqrt(space) // > (9/4)√N
	m := 1.0
	var total float64
	var res Result
	for total < budget {
		j := bbhtDraw(rng, m)
		e.Reset()
		e.Iterate(j)
		total += float64(j)
		mask := e.Measure(rng)
		e.stats.OracleCalls++
		if pred(mask) {
			res.Mask = mask
			res.Found = true
			res.Stats = e.Stats()
			return res
		}
		m = math.Min(m*6/5, math.Sqrt(space))
	}
	res.Stats = e.Stats()
	return res
}

// CountMarked estimates the number of solutions by quantum counting
// (Brassard–Høyer–Tapp): phase estimation with t counting qubits over the
// Grover operator G, whose eigenphases ±2θ satisfy sin²θ = M/N. The full
// (t+n)-qubit state Ψ[a][s] = (G^a|s⟩)_s/√2^t is simulated exactly, in
// the plane: its 2^n columns take only two distinct values, the marked
// and the unmarked amplitude sequence. The inverse QFT over the counting
// register therefore runs on those two length-2^t columns, and each
// outcome's probability weights them by M and N−M. Memory is O(2^t)
// plus the engine's marked set, not O(2^(t+n)).
func CountMarked(n, t int, pred Predicate) (float64, error) {
	if t < 1 || t > 14 {
		return 0, fmt.Errorf("grover: counting register width %d out of [1,14]", t)
	}
	marked := sweepMarked(n, pred)
	dim, m := marked.dim, marked.count
	ticks := 1 << uint(t)

	// colM[a], colU[a]: the marked and unmarked amplitudes of G^a|s⟩,
	// walked incrementally and scaled by the counting register's 1/√2^t.
	colM := make([]complex128, ticks)
	colU := make([]complex128, ticks)
	norm := 1 / math.Sqrt(float64(ticks))
	am := 1 / math.Sqrt(float64(dim))
	au := am
	for a := 0; a < ticks; a++ {
		colM[a] = complex(am*norm, 0)
		colU[a] = complex(au*norm, 0)
		if a < ticks-1 {
			am, au = groverStep(am, au, m, dim)
		}
	}
	inverseDFT(colM)
	inverseDFT(colU)

	// Measurement distribution over the counting register; take the MAP
	// outcome (the first on ties).
	bestA, bestP := 0, -1.0
	for a := range colM {
		cm, cu := colM[a], colU[a]
		p := float64(m)*(real(cm)*real(cm)+imag(cm)*imag(cm)) +
			float64(dim-m)*(real(cu)*real(cu)+imag(cu)*imag(cu))
		if p > bestP {
			bestA, bestP = a, p
		}
	}
	theta := math.Pi * float64(bestA) / float64(ticks)
	return float64(dim) * math.Pow(math.Sin(theta), 2), nil
}

// inverseDFT applies the unitary inverse DFT in place (radix-2
// Cooley–Tukey; len(x) must be a power of two).
func inverseDFT(x []complex128) {
	n := len(x)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length) // +1 sign: inverse transform
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	scale := complex(1/math.Sqrt(float64(n)), 0)
	for i := range x {
		x[i] *= scale
	}
}
