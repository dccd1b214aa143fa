// Package parallel is the deterministic worker-pool substrate behind the
// reproduction's hot loops: the 2^n oracle truth-table sweep, the Grover
// engine's 2^n marked-set sweep, the dense statevector amplitude kernels
// and the shots×sweeps annealing loops.
//
// Determinism is a hard contract: for a fixed seed, results are
// bit-identical regardless of the worker count. Three rules enforce it:
//
//  1. Chunk boundaries depend only on the input size and the grain, never
//     on the worker count. Workers pull chunks from a shared counter, so
//     which worker runs a chunk varies — what a chunk computes does not.
//  2. Bodies may only write to chunk-disjoint state (distinct slice
//     ranges, per-chunk cells) or to per-worker scratch.
//  3. Reductions (Sum, SumComplex) store one partial per chunk and fold
//     the partials in chunk order after all workers finish, so the
//     floating-point association is fixed. The serial path walks the same
//     chunks in the same order and is therefore bit-identical too.
//
// The pool is bounded by GOMAXPROCS by default; SetWorkers (or the
// REPRO_WORKERS environment variable) overrides it, and fan-outs whose
// input fits a single chunk stay serial, so tiny inputs pay nothing.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workerOverride holds the explicit worker count; 0 means "use
// GOMAXPROCS". Set from REPRO_WORKERS at startup and by SetWorkers.
var workerOverride atomic.Int64

func init() {
	if s := os.Getenv("REPRO_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			workerOverride.Store(int64(n))
		}
	}
}

// Workers reports how many workers a fan-out may use: the SetWorkers /
// REPRO_WORKERS override when set, else GOMAXPROCS. Always ≥ 1.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// SetWorkers overrides the worker count and returns the previous override
// (0 when the GOMAXPROCS default was active). n ≤ 0 restores the default.
// Intended for tests, benchmarks and command-line flags; the override may
// exceed GOMAXPROCS, which still exercises the concurrent path (useful to
// verify determinism and run the race detector on a small machine).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// numChunks returns how many grain-sized chunks cover n.
func numChunks(n, grain int) int {
	return (n + grain - 1) / grain
}

// forChunks runs body(c) for every chunk index c in [0, chunks). Serial
// (in chunk order) when only one worker is available or useful; otherwise
// workers pull chunk indices from a shared counter. A panic in any body
// reaches the caller either way.
func forChunks(chunks int, body func(c int)) {
	w := min(Workers(), chunks)
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			body(c)
		}
		return
	}
	runWorkers(w, chunks, func(_, c int) { body(c) })
}

// runWorkers starts w goroutines that pull chunk indices in [0, chunks)
// from a shared counter and run body(worker, c), where worker is the
// goroutine's own index in [0, w). It returns once every goroutine has
// stopped; a panic in any body is re-raised on the calling goroutine
// then.
func runWorkers(w, chunks int, body func(worker, c int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		pval any
		pset bool
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !pset {
						pval, pset = r, true
					}
					mu.Unlock()
				}
			}()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				body(worker, c)
			}
		}(i)
	}
	wg.Wait()
	if pset {
		panic(pval) //lint:allow panicmsg re-raises the worker's own panic value
	}
}

// chunkBounds returns the [lo, hi) range of chunk c.
func chunkBounds(c, n, grain int) (int, int) {
	lo := c * grain
	hi := lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For runs body over [0, n) split into grain-sized chunks. The body must
// only write to state disjoint across chunks (e.g. out[lo:hi]). Inputs of
// at most one chunk run serially on the calling goroutine.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := numChunks(n, grain)
	if chunks == 1 || Workers() <= 1 {
		body(0, n)
		return
	}
	forChunks(chunks, func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		body(lo, hi)
	})
}

// ForScratch is For with one scratch value per worker, created by
// newScratch and reused across every chunk that worker runs — the shape
// the oracle sweep needs (one classical register per worker). Scratch
// state must not leak between chunks in a way that affects results: bodies
// must fully (re)initialize what they read.
func ForScratch[S any](n, grain int, newScratch func() S, body func(s S, lo, hi int)) {
	NewScratch(newScratch).For(n, grain, body)
}

// Scratch is a set of per-worker scratch values that outlives a fan-out,
// for callers that fan out many times over the same kind of state (the
// branch-and-bound runs one fan-out per wave of tasks): each worker's
// value is built once and serves every later fan-out too. Scratch.For
// hands the fan-out's w-th worker the set's w-th value, building the
// values the set does not hold yet on the calling goroutine, so no two
// workers of a fan-out ever share one. A Scratch serves one fan-out at a
// time. As with ForScratch, what a chunk computes must not depend on what
// earlier chunks left in the value.
type Scratch[S any] struct {
	newScratch func() S
	vals       []S
}

// NewScratch returns an empty set whose values newScratch builds on
// demand.
func NewScratch[S any](newScratch func() S) *Scratch[S] {
	return &Scratch[S]{newScratch: newScratch}
}

// For runs body over [0, n) split into grain-sized chunks, like For, with
// the running worker's value from the set as body's scratch.
func (sc *Scratch[S]) For(n, grain int, body func(s S, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := numChunks(n, grain)
	w := min(Workers(), chunks)
	for len(sc.vals) < w {
		sc.vals = append(sc.vals, sc.newScratch())
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			lo, hi := chunkBounds(c, n, grain)
			body(sc.vals[0], lo, hi)
		}
		return
	}
	vals := sc.vals
	runWorkers(w, chunks, func(worker, c int) {
		lo, hi := chunkBounds(c, n, grain)
		body(vals[worker], lo, hi)
	})
}

// Sum folds partial(lo, hi) over grain-sized chunks of [0, n) and adds the
// per-chunk partials in chunk order. Because the chunking and the fold
// order are fixed by (n, grain) alone, the result is bit-identical at any
// worker count — including the serial path.
func Sum(n, grain int, partial func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	chunks := numChunks(n, grain)
	if chunks == 1 {
		return partial(0, n)
	}
	parts := make([]float64, chunks)
	forChunks(chunks, func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		parts[c] = partial(lo, hi)
	})
	var s float64
	for _, p := range parts {
		s += p
	}
	return s
}

// SumComplex is Sum over complex128 partials.
func SumComplex(n, grain int, partial func(lo, hi int) complex128) complex128 {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	chunks := numChunks(n, grain)
	if chunks == 1 {
		return partial(0, n)
	}
	parts := make([]complex128, chunks)
	forChunks(chunks, func(c int) {
		lo, hi := chunkBounds(c, n, grain)
		parts[c] = partial(lo, hi)
	})
	var s complex128
	for _, p := range parts {
		s += p
	}
	return s
}
