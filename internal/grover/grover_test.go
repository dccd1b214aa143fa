package grover

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

func singleMarked(target uint64) Predicate {
	return func(m uint64) bool { return m == target }
}

func TestOptimalIterations(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{6, 1, 6}, // the paper's Fig. 9 setting: ⌊π/4·√64⌋ = 6
		{3, 1, 2}, // ⌊π/4·√8⌋ = ⌊2.22⌋
		{10, 1, 25},
		{6, 4, 3},
		{6, 0, 0},
	}
	for _, c := range cases {
		if got := OptimalIterations(c.n, c.m); got != c.want {
			t.Errorf("OptimalIterations(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestIterationAmplification(t *testing.T) {
	// Success probability must follow sin²((2j+1)θ) with sinθ = 1/√64.
	e := NewEngine(6, singleMarked(54), 100)
	theta := math.Asin(1.0 / 8)
	for j := 0; j <= 6; j++ {
		want := math.Pow(math.Sin(float64(2*j+1)*theta), 2)
		if got := e.SuccessProbability(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("after %d iterations P = %v, want %v", j, got, want)
		}
		e.Iterate(1)
	}
}

func TestSearchFindsSingleTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := Search(context.Background(), 6, singleMarked(54), 1, 1000, 3, rng, obs.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Mask != 54 {
		t.Fatalf("Search failed: %+v", res)
	}
	if res.Stats.Iterations != 6 {
		t.Errorf("iterations = %d, want 6", res.Stats.Iterations)
	}
	if res.ErrorProbability > 0.01 {
		t.Errorf("error probability %v, want < 1%%", res.ErrorProbability)
	}
	// Gate accounting: 6 + 6·(1000 + 4·6+1) + initial H layer.
	wantGates := int64(6) + 6*(1000+25)
	if res.Stats.Gates != wantGates {
		t.Errorf("gates = %d, want %d", res.Stats.Gates, wantGates)
	}
}

func TestSearchManySolutions(t *testing.T) {
	// M = 16 of 64: one iteration suffices (⌊π/4·√4⌋ = 1).
	pred := func(m uint64) bool { return m%4 == 0 }
	rng := rand.New(rand.NewSource(2))
	res, err := Search(context.Background(), 6, pred, 16, 10, 3, rng, obs.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("Search failed with many solutions: %+v", res)
	}
	if !pred(res.Mask) {
		t.Error("returned mask is not a solution")
	}
}

func TestSearchNoSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res, err := Search(context.Background(), 5, func(uint64) bool { return false }, 0, 10, 2, rng, obs.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("Search claimed success with empty solution set")
	}
}

func TestSearchUnknownM(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, target := range []uint64{0, 31, 17} {
		res := SearchUnknown(5, singleMarked(target), 10, rng)
		if !res.Found || res.Mask != target {
			t.Fatalf("BBHT missed target %d: %+v", target, res)
		}
	}
	res := SearchUnknown(5, func(uint64) bool { return false }, 10, rng)
	if res.Found {
		t.Error("BBHT claimed success with no solutions")
	}
}

func TestBBHTDrawStaysBelowM(t *testing.T) {
	// Regression: BBHT draws j "uniformly among the nonnegative integers
	// smaller than m" (Boyer et al.). The old Intn(int(m)+1) drew from
	// [0, m] instead — the first round (m = 1) could already burn a Grover
	// iteration instead of taking a free classical sample, and every later
	// round could overshoot m, inflating the iteration budget beyond the
	// paper's accounting.
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		m       float64
		maxWant int // draws must stay in [0, maxWant]
	}{
		{1, 0},   // first round: always the classical sample j = 0
		{1.2, 1}, // integers below 1.2 are {0, 1}
		{6, 5},   // integral m: [0, 6); the old code could draw 6
	}
	for _, c := range cases {
		seen := make(map[int]bool)
		for i := 0; i < 400; i++ {
			j := bbhtDraw(rng, c.m)
			if j < 0 || j > c.maxWant {
				t.Fatalf("bbhtDraw(m=%v) = %d, want within [0, %d]", c.m, j, c.maxWant)
			}
			seen[j] = true
		}
		if len(seen) != c.maxWant+1 {
			t.Errorf("bbhtDraw(m=%v) support %v, want all of [0, %d]", c.m, seen, c.maxWant)
		}
	}
}

func TestCountMarkedDeterministicAcrossWorkers(t *testing.T) {
	// Quantum counting fans the inverse-DFT columns and the tick masses
	// over workers; the estimate must be bit-identical at any worker count.
	pred := func(x uint64) bool { return x%5 == 0 }
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want, err := CountMarked(10, 6, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got, err := CountMarked(10, 6, pred)
		if err != nil {
			t.Fatal(err)
		}
		if got != want { //lint:allow floatcmp determinism contract is bit-identical
			t.Errorf("workers=%d: CountMarked = %v, want %v", w, got, want)
		}
	}
}

func TestCountMarkedExact(t *testing.T) {
	// Counting with enough precision should recover M for power-of-two
	// fractions exactly and others approximately.
	for _, tc := range []struct {
		n, m int
	}{
		{5, 1}, {5, 4}, {5, 8}, {6, 1},
	} {
		pred := func(x uint64) bool { return x < uint64(tc.m) }
		got, err := CountMarked(tc.n, 9, pred)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(tc.m)) > 0.5+0.1*float64(tc.m) {
			t.Errorf("CountMarked(n=%d, M=%d) = %v", tc.n, tc.m, got)
		}
	}
}

func TestCountMarkedZero(t *testing.T) {
	got, err := CountMarked(5, 8, func(uint64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.5 {
		t.Errorf("CountMarked with no solutions = %v, want ~0", got)
	}
}

func TestCountMarkedValidation(t *testing.T) {
	if _, err := CountMarked(5, 0, func(uint64) bool { return false }); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := CountMarked(5, 15, func(uint64) bool { return false }); err == nil {
		t.Error("t=15 accepted")
	}
}

func TestInverseDFTUnitary(t *testing.T) {
	// DFT then inverse must round-trip; our inverseDFT is its own check
	// against an explicit O(n²) inverse transform.
	x := make([]complex128, 16)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	want := make([]complex128, 16)
	for k := range want {
		var sum complex128
		for j := range x {
			ang := 2 * math.Pi * float64(k*j) / 16
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		want[k] = sum / 4 // 1/√16
	}
	got := append([]complex128(nil), x...)
	inverseDFT(got)
	for i := range got {
		if d := got[i] - want[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
			t.Fatalf("inverseDFT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResetRestoresUniform(t *testing.T) {
	e := NewEngine(4, singleMarked(3), 0)
	e.Iterate(2)
	e.Reset()
	for i, p := range e.State().Probabilities() {
		if math.Abs(p-1.0/16) > 1e-12 {
			t.Fatalf("P[%d] = %v after Reset, want 1/16", i, p)
		}
	}
}
