package grover

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/qsim"
)

// denseEngine is the reference the plane is pinned against: the full 2^n
// statevector driven by qsim's dense phase-oracle and diffusion kernels,
// with the engine's gate ledger.
type denseEngine struct {
	n      int
	pred   Predicate
	sv     *qsim.Statevector
	stats  Stats
	perOrc int64
	perDif int64
}

func newDenseEngine(n int, pred Predicate, gatesPerOracle int64) *denseEngine {
	e := &denseEngine{n: n, pred: pred, sv: qsim.NewStatevector(n), perOrc: gatesPerOracle, perDif: int64(4*n + 1)}
	e.reset()
	return e
}

func (e *denseEngine) reset() {
	e.sv.EqualSuperposition()
	e.stats.Gates += int64(e.n)
}

func (e *denseEngine) iterate(k int) {
	for i := 0; i < k; i++ {
		e.sv.ApplyPhaseOracle(e.pred)
		e.sv.ApplyDiffusion()
		e.stats.Iterations++
		e.stats.OracleCalls++
		e.stats.Gates += e.perOrc + e.perDif
	}
}

func (e *denseEngine) successProbability() float64 {
	var p float64
	for i, a := range e.sv.Amplitudes() {
		if e.pred(uint64(i)) {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// denseSearch is Search's try loop over the dense reference.
func denseSearch(n int, pred Predicate, m int, gatesPerOracle int64, maxTries int, rng *rand.Rand) Result {
	e := newDenseEngine(n, pred, gatesPerOracle)
	iters := OptimalIterations(n, m)
	var res Result
	for try := 0; try < maxTries; try++ {
		if try > 0 {
			e.reset()
		}
		e.iterate(iters)
		res.ErrorProbability = 1 - e.successProbability()
		res.Mask = e.sv.Measure(rng)
		e.stats.OracleCalls++
		if pred(res.Mask) {
			res.Found = true
			break
		}
	}
	res.Stats = e.stats
	return res
}

// denseCountMarked is quantum counting over the full (t+n)-qubit state:
// 2^t rows of 2^n amplitudes, an inverse DFT per column.
func denseCountMarked(n, t int, pred Predicate) float64 {
	dim, ticks := 1<<uint(n), 1<<uint(t)
	cur := qsim.NewStatevector(n)
	cur.EqualSuperposition()
	psi := make([][]complex128, ticks)
	norm := complex(1/math.Sqrt(float64(ticks)), 0)
	for a := range psi {
		psi[a] = make([]complex128, dim)
		for s, amp := range cur.Amplitudes() {
			psi[a][s] = amp * norm
		}
		cur.ApplyPhaseOracle(pred)
		cur.ApplyDiffusion()
	}
	col := make([]complex128, ticks)
	for s := 0; s < dim; s++ {
		for a := range col {
			col[a] = psi[a][s]
		}
		inverseDFT(col)
		for a := range col {
			psi[a][s] = col[a]
		}
	}
	bestA, bestP := 0, -1.0
	for a, row := range psi {
		var p float64
		for _, c := range row {
			p += real(c)*real(c) + imag(c)*imag(c)
		}
		if p > bestP {
			bestA, bestP = a, p
		}
	}
	return float64(dim) * math.Pow(math.Sin(math.Pi*float64(bestA)/float64(ticks)), 2)
}

// randomMarked returns a predicate marking m basis states of an n-qubit
// register drawn uniformly with rng.
func randomMarked(n, m int, rng *rand.Rand) Predicate {
	marked := make([]bool, 1<<uint(n))
	for _, i := range rng.Perm(len(marked))[:m] {
		marked[i] = true
	}
	return func(x uint64) bool { return marked[x] }
}

// markedCounts returns the solution counts the differential tests draw
// for an n-qubit register: the edge cases 0, 1, N/4, N/2, N−1 and N, and
// two uniform draws.
func markedCounts(n int, rng *rand.Rand) []int {
	dim := 1 << uint(n)
	return []int{0, 1, dim / 4, dim / 2, dim - 1, dim, rng.Intn(dim + 1), rng.Intn(dim/8 + 1)}
}

func TestPlaneSearchMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	runs, worst := 0, 0.0
	for n := 1; n <= 14; n++ {
		for _, m := range markedCounts(n, rng) {
			pred := randomMarked(n, m, rng)
			// Absence is probed with the M = 1 schedule, as core does.
			sched := max(m, 1)
			for seed := int64(0); seed < 2; seed++ {
				gates := int64(100 + n)
				got, err := Search(context.Background(), n, pred, sched, gates, 3, rand.New(rand.NewSource(seed)), obs.Obs{})
				if err != nil {
					t.Fatal(err)
				}
				want := denseSearch(n, pred, sched, gates, 3, rand.New(rand.NewSource(seed)))
				if got.Mask != want.Mask || got.Found != want.Found || got.Stats != want.Stats {
					t.Fatalf("n=%d M=%d seed=%d: plane %+v, dense %+v", n, m, seed, got, want)
				}
				d := math.Abs(got.ErrorProbability - want.ErrorProbability)
				if d > 1e-9 {
					t.Fatalf("n=%d M=%d seed=%d: error probability %v, dense %v", n, m, seed, got.ErrorProbability, want.ErrorProbability)
				}
				worst = math.Max(worst, d)
				runs++
			}
		}
	}
	t.Logf("%d searches identical to the dense engine, max |ΔP| = %.2g", runs, worst)
}

func TestPlaneStateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 12; n++ {
		for _, m := range markedCounts(n, rng) {
			pred := randomMarked(n, m, rng)
			plane := NewEngine(n, pred, 7)
			dense := newDenseEngine(n, pred, 7)
			steps := OptimalIterations(n, max(m, 1)) + 3
			for j := 0; j <= steps; j++ {
				want := dense.sv.Amplitudes()
				for i, a := range plane.State().Amplitudes() {
					if d := a - want[i]; math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
						t.Fatalf("n=%d M=%d after %d iterations: amp[%d] = %v, dense %v", n, m, j, i, a, want[i])
					}
				}
				if d := plane.SuccessProbability() - dense.successProbability(); math.Abs(d) > 1e-9 {
					t.Fatalf("n=%d M=%d after %d iterations: ΔP = %g", n, m, j, d)
				}
				if plane.Stats() != dense.stats {
					t.Fatalf("n=%d M=%d after %d iterations: stats %+v, dense %+v", n, m, j, plane.Stats(), dense.stats)
				}
				seed := int64(j)
				pr, dr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for shot := 0; shot < 4; shot++ {
					if got, want := plane.Measure(pr), dense.sv.Measure(dr); got != want {
						t.Fatalf("n=%d M=%d after %d iterations, shot %d: measured %d, dense %d", n, m, j, shot, got, want)
					}
				}
				plane.Iterate(1)
				dense.iterate(1)
			}
		}
	}
}

func TestCountMarkedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 2; n <= 10; n++ {
		for tq := 1; tq <= 9; tq++ {
			for _, m := range []int{rng.Intn(1<<uint(n) + 1), rng.Intn(1<<uint(n)/8 + 1)} {
				pred := randomMarked(n, m, rng)
				got, err := CountMarked(n, tq, pred)
				if err != nil {
					t.Fatal(err)
				}
				want := denseCountMarked(n, tq, pred)
				if int(got+0.5) != int(want+0.5) {
					t.Fatalf("n=%d t=%d M=%d: CountMarked = %v, dense %v", n, tq, m, got, want)
				}
			}
		}
	}
}

func TestCountMarkedMemory(t *testing.T) {
	// Regression: counting held all 2^t rows of 2^n amplitudes, 256 GiB at
	// n = 20, t = 14 (and 1 GiB at core's default width on 12 vertices).
	// The plane needs two columns of 2^t plus the 192 KiB marked set.
	pred := singleMarked(123457)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := CountMarked(20, 14, pred)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if int(got+0.5) != 1 {
		t.Errorf("CountMarked(20, 14) = %v, want M = 1", got)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
		t.Errorf("CountMarked(20, 14) allocated %d bytes, want under 16 MiB", d)
	}
}

func TestMarkedSetRankAndLast(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 1; n <= 9; n++ {
		dim := 1 << uint(n)
		for _, m := range markedCounts(n, rng) {
			pred := randomMarked(n, m, rng)
			s := sweepMarked(n, pred)
			if s.count != m {
				t.Fatalf("n=%d: count %d, want %d", n, s.count, m)
			}
			c, lastM, lastU := 0, -1, -1
			for i := 0; i < dim; i++ {
				if pred(uint64(i)) {
					c++
					lastM = i
				} else {
					lastU = i
				}
				if s.has(i) != pred(uint64(i)) || s.rank(i) != c {
					t.Fatalf("n=%d M=%d i=%d: has %v rank %d, want %v %d", n, m, i, s.has(i), s.rank(i), pred(uint64(i)), c)
				}
			}
			if s.last(true) != lastM || s.last(false) != lastU {
				t.Fatalf("n=%d M=%d: last %d/%d, want %d/%d", n, m, s.last(true), s.last(false), lastM, lastU)
			}
		}
	}
}

func TestPlaneMeasureDriftFallback(t *testing.T) {
	// Force r past the cumulative total with amplitudes of norm < 1: the
	// measurement must land on the last basis state with nonzero
	// probability, as the dense Measure does, never on a zero-amplitude
	// state.
	cases := []struct {
		marked   []uint64
		am, au   float64
		fallback uint64
	}{
		{[]uint64{3, 9}, 0.5, 0, 9},     // only marked states carry mass
		{[]uint64{3, 9}, 0, 0.1, 15},    // only unmarked states carry mass
		{[]uint64{3, 15}, 0.5, 0.1, 15}, // the top state is marked
		{[]uint64{3, 9}, 0.5, 0.1, 15},  // the top state is unmarked
		{[]uint64{0, 14}, 0.3, 0, 14},   // marked below an unmarked top
	}
	for _, c := range cases {
		e := NewEngine(4, func(x uint64) bool { return slices.Contains(c.marked, x) }, 0)
		e.am, e.au = c.am, c.au
		dense := e.State()
		pr, dr := rand.New(rand.NewSource(45)), rand.New(rand.NewSource(45))
		hits := 0
		for i := 0; i < 64; i++ {
			got, want := e.Measure(pr), dense.Measure(dr)
			if got != want {
				t.Fatalf("marked %v, am %v, au %v: measured %d, dense %d", c.marked, c.am, c.au, got, want)
			}
			if got == c.fallback {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("marked %v, am %v, au %v: fallback state %d never measured", c.marked, c.am, c.au, c.fallback)
		}
	}
}

// FuzzGroverPlane drives the plane and the dense reference through the
// same random marked set and iteration count and requires the same
// amplitudes, success mass, ledger and measurements.
func FuzzGroverPlane(f *testing.F) {
	f.Add(uint8(6), uint32(1), uint8(6), int64(1))
	f.Add(uint8(1), uint32(1), uint8(3), int64(2))
	f.Add(uint8(4), uint32(4), uint8(1), int64(3))
	f.Add(uint8(8), uint32(128), uint8(9), int64(4))
	f.Add(uint8(10), uint32(1023), uint8(2), int64(5))
	f.Add(uint8(11), uint32(0), uint8(40), int64(6))
	f.Add(uint8(5), uint32(32), uint8(63), int64(7))
	f.Fuzz(func(t *testing.T, nb uint8, mb uint32, iters uint8, seed int64) {
		n := 1 + int(nb)%12
		dim := 1 << uint(n)
		m := int(mb % uint32(dim+1))
		k := int(iters) % 64
		rng := rand.New(rand.NewSource(seed))
		pred := randomMarked(n, m, rng)
		plane := NewEngine(n, pred, 5)
		dense := newDenseEngine(n, pred, 5)
		plane.Iterate(k)
		dense.iterate(k)
		if plane.Stats() != dense.stats {
			t.Fatalf("stats %+v, dense %+v", plane.Stats(), dense.stats)
		}
		want := dense.sv.Amplitudes()
		for i, a := range plane.State().Amplitudes() {
			if d := a - want[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
				t.Fatalf("amp[%d] = %v, dense %v", i, a, want[i])
			}
		}
		if d := plane.SuccessProbability() - dense.successProbability(); math.Abs(d) > 1e-9 {
			t.Fatalf("ΔP = %g", d)
		}
		pr, dr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for shot := 0; shot < 3; shot++ {
			if got, want := plane.Measure(pr), dense.sv.Measure(dr); got != want {
				t.Fatalf("shot %d: measured %d, dense %d", shot, got, want)
			}
		}
	})
}
