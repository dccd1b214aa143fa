package parallel

import (
	"math"
	"sync/atomic"
	"testing"
)

// withWorkers runs f under an explicit worker count and restores the
// previous override afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestWorkersFloor(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want ≥ 1", Workers())
	}
	withWorkers(t, 8, func() {
		if Workers() != 8 {
			t.Fatalf("Workers() = %d under SetWorkers(8)", Workers())
		}
	})
	if prev := SetWorkers(0); prev != 0 {
		t.Fatalf("override %d leaked out of withWorkers", prev)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 1000
			hits := make([]int32, n)
			For(n, 7, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d: index %d visited %d times", w, i, h)
				}
			}
		})
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	For(0, 8, func(lo, hi int) { t.Fatal("body called for n=0") })
	calls := 0
	For(3, 8, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 3 {
			t.Fatalf("tiny input chunked: [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("tiny input ran %d chunks, want 1 serial call", calls)
	}
}

func TestForScratchIsolation(t *testing.T) {
	// Each worker's scratch must be private: concurrent increments on a
	// shared scratch would race (the -race CI leg guards this) and the
	// per-index output must still be exact.
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 500
			out := make([]int, n)
			ForScratch(n, 3,
				func() *[]int { s := make([]int, 1); return &s },
				func(s *[]int, lo, hi int) {
					for i := lo; i < hi; i++ {
						(*s)[0] = i * i // scratch reused across chunks
						out[i] = (*s)[0]
					}
				})
			for i := range out {
				if out[i] != i*i {
					t.Fatalf("w=%d: out[%d] = %d", w, i, out[i])
				}
			}
		})
	}
}

// A Scratch set outlives its fan-outs: each worker's value is built once
// and handed to one worker at a time in every later fan-out. The body
// writes its value without synchronisation, so under -race a value that
// two concurrent workers shared would be reported as a data race; the
// busy flag reports the same sharing without the race detector.
func TestScratchStaysPerWorkerAcrossFanOuts(t *testing.T) {
	type state struct {
		busy   atomic.Bool
		chunks int
	}
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			built := 0
			sc := NewScratch(func() *state { built++; return &state{} })
			const fanOuts, n = 40, 64
			for f := 0; f < fanOuts; f++ {
				sc.For(n, 1, func(s *state, lo, hi int) {
					if !s.busy.CompareAndSwap(false, true) {
						t.Errorf("w=%d fan-out %d: a scratch value is in use by two workers", w, f)
						return
					}
					s.chunks += hi - lo
					s.busy.Store(false)
				})
			}
			if built != w {
				t.Fatalf("w=%d: %d scratch values built over %d fan-outs, want one per worker", w, built, fanOuts)
			}
			total := 0
			for _, s := range sc.vals {
				total += s.chunks
			}
			if total != fanOuts*n {
				t.Fatalf("w=%d: the scratch values saw %d indices, want %d", w, total, fanOuts*n)
			}
		})
	}
}

// TestSumDeterministicAcrossWorkers is the keystone of the determinism
// contract: chunked folds must be bit-identical at every worker count,
// serial path included.
func TestSumDeterministicAcrossWorkers(t *testing.T) {
	const n = 100003 // prime: exercises the ragged final chunk
	vals := make([]float64, n)
	x := 0.5
	for i := range vals {
		// Logistic-map noise: deterministic, poorly conditioned sums.
		x = 3.9 * x * (1 - x)
		vals[i] = x - 0.5
	}
	partial := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	var ref float64
	for _, w := range []int{1, 2, 3, 8} {
		withWorkers(t, w, func() {
			got := Sum(n, 1024, partial)
			if w == 1 {
				ref = got
				return
			}
			if got != ref { //lint:allow floatcmp determinism is bit-exact by contract
				t.Fatalf("Sum at %d workers = %v, 1 worker = %v (diff %g)", w, got, ref, got-ref)
			}
		})
	}
}

func TestSumComplexDeterministicAcrossWorkers(t *testing.T) {
	const n = 4099
	partial := func(lo, hi int) complex128 {
		var s complex128
		for i := lo; i < hi; i++ {
			s += complex(math.Sin(float64(i)), math.Cos(float64(i))) / complex(float64(i+1), 0)
		}
		return s
	}
	var ref complex128
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			got := SumComplex(n, 256, partial)
			if w == 1 {
				ref = got
				return
			}
			if got != ref { //lint:allow floatcmp determinism is bit-exact by contract
				t.Fatalf("SumComplex at %d workers = %v, 1 worker = %v", w, got, ref)
			}
		})
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("w=%d: panic did not propagate", w)
				}
			}()
			For(100, 1, func(lo, hi int) {
				if hi > 42 {
					panic("parallel: test panic")
				}
			})
		})
	}
}

func TestForScratchPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		ForScratch(100, 1, func() int { return 0 }, func(_ int, lo, hi int) {
			panic("parallel: test panic")
		})
	})
}
