package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// MaxStatevectorQubits bounds dense simulation; 2^26 amplitudes ≈ 1 GiB.
const MaxStatevectorQubits = 26

// ampGrain is the chunk size of the parallel amplitude kernels. Registers
// of up to ampGrain amplitudes (13 qubits) run serially: per-element work
// is a handful of FLOPs, so smaller fan-outs cost more than they save.
const ampGrain = 1 << 13

// Statevector is a dense 2^n amplitude vector. Qubit 0 is the most
// significant bit of a basis index (the paper's |v1 v2 ... vn> order).
//
// The amplitude kernels (gate applications, phase oracle, diffusion,
// Probabilities) fan out over parallel workers on large registers; results
// are bit-identical at any worker count (see internal/parallel). Distinct
// Statevectors may be used concurrently, but a single Statevector must not
// receive overlapping operations.
type Statevector struct {
	n   int
	amp []complex128
}

// NewStatevector returns |00...0> on n qubits.
func NewStatevector(n int) *Statevector {
	if n < 1 || n > MaxStatevectorQubits {
		panic(fmt.Sprintf("qsim: statevector qubit count %d out of [1,%d]", n, MaxStatevectorQubits))
	}
	s := &Statevector{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// NumQubits returns the register width.
func (s *Statevector) NumQubits() int { return s.n }

// Amplitudes returns the underlying amplitude slice (not a copy).
func (s *Statevector) Amplitudes() []complex128 { return s.amp }

// bit returns the bit mask selecting qubit q inside a basis index.
func (s *Statevector) bit(q int) uint64 {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, s.n))
	}
	return 1 << uint(s.n-1-q)
}

// ApplyX applies a NOT gate to qubit q.
//
// Pair kernels (X, H, MCX) iterate the full index range and act on the
// (i, i|m) pair from its m-bit-clear member i. Chunking the range is safe:
// indices with the m bit set are never visited directly, so each pair is
// owned by exactly one chunk even when i|m lies in another chunk.
func (s *Statevector) ApplyX(q int) {
	m := s.bit(q)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := uint64(lo); i < uint64(hi); i++ {
			if i&m == 0 {
				s.amp[i], s.amp[i|m] = s.amp[i|m], s.amp[i]
			}
		}
	})
}

// ApplyH applies a Hadamard gate to qubit q.
func (s *Statevector) ApplyH(q int) {
	m := s.bit(q)
	inv := complex(1/math.Sqrt2, 0)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := uint64(lo); i < uint64(hi); i++ {
			if i&m == 0 {
				a, b := s.amp[i], s.amp[i|m]
				s.amp[i] = inv * (a + b)
				s.amp[i|m] = inv * (a - b)
			}
		}
	})
}

// ApplyZ applies a phase flip to qubit q.
func (s *Statevector) ApplyZ(q int) {
	m := s.bit(q)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := uint64(lo); i < uint64(hi); i++ {
			if i&m != 0 {
				s.amp[i] = -s.amp[i]
			}
		}
	})
}

// controlsSatisfied reports whether basis index i satisfies all controls.
func (s *Statevector) controlsSatisfied(i uint64, controls []Control) bool {
	for _, ctl := range controls {
		on := i&s.bit(ctl.Qubit) != 0
		if on != ctl.Positive {
			return false
		}
	}
	return true
}

// ApplyMCX applies a multi-controlled X.
func (s *Statevector) ApplyMCX(controls []Control, target int) {
	m := s.bit(target)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := uint64(lo); i < uint64(hi); i++ {
			if i&m == 0 {
				// The controls must hold regardless of the target bit;
				// controls never include the target.
				if s.controlsSatisfied(i, controls) {
					s.amp[i], s.amp[i|m] = s.amp[i|m], s.amp[i]
				}
			}
		}
	})
}

// ApplyMCZ applies a multi-controlled Z.
func (s *Statevector) ApplyMCZ(controls []Control, target int) {
	m := s.bit(target)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := uint64(lo); i < uint64(hi); i++ {
			if i&m != 0 && s.controlsSatisfied(i, controls) {
				s.amp[i] = -s.amp[i]
			}
		}
	})
}

// Run executes every gate of the circuit on s. The circuit must not use
// more qubits than s has.
func (s *Statevector) Run(c *Circuit) {
	if c.NumQubits() > s.n {
		panic(fmt.Sprintf("qsim: circuit needs %d qubits, statevector has %d", c.NumQubits(), s.n))
	}
	for _, g := range c.gates {
		switch g.kind {
		case KindX:
			s.ApplyMCX(c.controls(g), int(g.target))
		case KindH:
			s.ApplyH(int(g.target))
		case KindZ:
			s.ApplyMCZ(c.controls(g), int(g.target))
		default:
			panic(fmt.Sprintf("qsim: unknown gate kind %v", g.kind))
		}
	}
}

// Probability returns |amp[basis]|².
func (s *Statevector) Probability(basis uint64) float64 {
	p := cmplx.Abs(s.amp[basis])
	return p * p
}

// Probabilities returns the full measurement distribution.
func (s *Statevector) Probabilities() []float64 {
	out := make([]float64, len(s.amp))
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := s.amp[i]
			out[i] = real(a)*real(a) + imag(a)*imag(a)
		}
	})
	return out
}

// Norm returns the state's 2-norm (should stay 1 up to float error).
func (s *Statevector) Norm() float64 {
	sum := parallel.Sum(len(s.amp), ampGrain, func(lo, hi int) float64 {
		var p float64
		for i := lo; i < hi; i++ {
			a := s.amp[i]
			p += real(a)*real(a) + imag(a)*imag(a)
		}
		return p
	})
	return math.Sqrt(sum)
}

// Measure samples one basis state from the distribution.
func (s *Statevector) Measure(rng *rand.Rand) uint64 {
	r := rng.Float64()
	var cum float64
	last := -1
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			last = i
		}
		cum += p
		if r < cum {
			return uint64(i)
		}
	}
	// Cumulative rounding can leave r past the running sum. Fall back to
	// the last basis state with nonzero probability — never to a
	// zero-amplitude state, which a measurement cannot produce.
	if last >= 0 {
		return uint64(last)
	}
	return uint64(len(s.amp) - 1)
}

// Sample draws shots measurements and returns per-basis counts. It builds
// the cumulative distribution once and binary-searches it per shot
// (O(2^n + shots·n) instead of the O(shots·2^n) of repeated Measure), and
// draws exactly one uniform variate per shot in the same order as Measure,
// so a given rng stream yields identical outcomes either way.
func (s *Statevector) Sample(shots int, rng *rand.Rand) map[uint64]int {
	counts := make(map[uint64]int)
	if shots <= 0 {
		return counts
	}
	cum := make([]float64, len(s.amp))
	var run float64
	last := -1
	for i, a := range s.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			last = i
		}
		run += p
		cum[i] = run
	}
	for k := 0; k < shots; k++ {
		r := rng.Float64()
		// Smallest i with cum[i] > r — exactly Measure's "first i with
		// r < cum" linear-scan rule.
		i := sort.Search(len(cum), func(j int) bool { return cum[j] > r })
		if i == len(cum) {
			// Same float-drift fallback as Measure.
			if last >= 0 {
				i = last
			} else {
				i = len(cum) - 1
			}
		}
		counts[uint64(i)]++
	}
	return counts
}
