package qsim

import (
	"math"

	"repro/internal/parallel"
)

// Dense Grover operations on a register of only the n vertex qubits, with
// the oracle's ancilla work executed classically per basis state (see
// package comment and DESIGN.md). The production engine (internal/grover)
// runs in the equivalent two-amplitude plane; these kernels remain the
// dense reference its tests pin it against and the ablation benchmarks
// time.

// ApplyPhaseOracle multiplies the amplitude of every basis state for which
// marked returns true by -1. This is exactly the effect of the paper's
// U_check / sign-flip / U_check† sandwich on the vertex register, because
// U_check is a basis-state permutation and the ancillae return to |0...0>.
// On large registers basis states are evaluated by parallel workers, so
// marked must be deterministic and safe for concurrent use (truth-table
// lookups and pure functions qualify).
func (s *Statevector) ApplyPhaseOracle(marked func(uint64) bool) {
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if marked(uint64(i)) {
				s.amp[i] = -s.amp[i]
			}
		}
	})
}

// ApplyDiffusion performs the Grover diffusion operator: every amplitude a
// is replaced by 2ā - a where ā is the mean amplitude ("inversion about
// the average", Fig. 4c of the paper). It equals H^⊗n (2|0><0| - I) H^⊗n.
// The mean is a chunk-ordered reduction, so it is bit-identical at any
// worker count.
func (s *Statevector) ApplyDiffusion() {
	mean := parallel.SumComplex(len(s.amp), ampGrain, func(lo, hi int) complex128 {
		var p complex128
		for i := lo; i < hi; i++ {
			p += s.amp[i]
		}
		return p
	})
	mean /= complex(float64(len(s.amp)), 0)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.amp[i] = 2*mean - s.amp[i]
		}
	})
}

// EqualSuperposition resets s to H^⊗n |0...0>.
func (s *Statevector) EqualSuperposition() {
	v := complex(1/math.Sqrt(float64(len(s.amp))), 0)
	parallel.For(len(s.amp), ampGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.amp[i] = v
		}
	})
}
