package anneal

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/qubo"
)

// driftModel is a QUBO whose coefficients (multiples of 0.1) are not
// binary-representable, so incremental ±delta accounting accumulates
// floating-point drift over long schedules.
func driftModel(n int) *qubo.Model {
	m := qubo.NewModel()
	for i := 0; i < n; i++ {
		m.AddVar("")
	}
	for i := 0; i < n; i++ {
		m.AddLinear(i, 0.1*float64(i%7-3))
		for j := i + 1; j < n; j++ {
			m.AddQuad(i, j, 0.1*float64((i*j)%5-2))
		}
	}
	return m
}

// bruteMin finds the exact QUBO minimum for tiny models.
func bruteMin(m *qubo.Model) float64 {
	n := m.N()
	best := math.Inf(1)
	x := make([]bool, n)
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<uint(i)) != 0
		}
		if v := m.Evaluate(x); v < best {
			best = v
		}
	}
	return best
}

func smallMKPModel(t *testing.T) (*qubo.MKPEncoding, float64) {
	t.Helper()
	g := graph.Example6()
	e, err := qubo.FormulateMKP(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return e, -4 // optimum: the size-4 max 2-plex
}

func TestSAFindsOptimumOnExample(t *testing.T) {
	e, want := smallMKPModel(t)
	res, err := SA(context.Background(), e.Model, Params{Shots: 200, Sweeps: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Energy > want+1e-9 {
		t.Errorf("SA best = %v, want ≤ %v", res.Best.Energy, want)
	}
	set, valid := e.DecodeValid(res.Best.X)
	if !valid || len(set) != 4 {
		t.Errorf("SA best decodes to %v (valid=%v)", set, valid)
	}
}

func TestSQAFindsOptimumOnExample(t *testing.T) {
	e, want := smallMKPModel(t)
	res, err := SQA(context.Background(), e.Model, Params{Shots: 100, Sweeps: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Energy > want+1e-9 {
		t.Errorf("SQA best = %v, want ≤ %v", res.Best.Energy, want)
	}
	set, valid := e.DecodeValid(res.Best.X)
	if !valid || len(set) != 4 {
		t.Errorf("SQA best decodes to %v (valid=%v)", set, valid)
	}
}

func TestSamplersReachBruteForceMinimum(t *testing.T) {
	// On a tiny random QUBO both samplers must hit the exact minimum
	// with a generous budget.
	m := qubo.NewModel()
	for i := 0; i < 10; i++ {
		m.AddVar("")
	}
	// Deterministic rugged instance.
	vals := []float64{1.3, -2.1, 0.7, -0.4, 2.2, -1.8, 0.9, -1.1, 1.6, -0.6}
	for i := 0; i < 10; i++ {
		m.AddLinear(i, vals[i])
		for j := i + 1; j < 10; j++ {
			m.AddQuad(i, j, vals[(i*j+3)%10]/2)
		}
	}
	want := bruteMin(m)
	sa, err := SA(context.Background(), m, Params{Shots: 100, Sweeps: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sa.Best.Energy-want) > 1e-9 {
		t.Errorf("SA best = %v, brute force = %v", sa.Best.Energy, want)
	}
	sqa, err := SQA(context.Background(), m, Params{Shots: 40, Sweeps: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sqa.Best.Energy-want) > 1e-9 {
		t.Errorf("SQA best = %v, brute force = %v", sqa.Best.Energy, want)
	}
}

func TestTraceMonotoneNonIncreasing(t *testing.T) {
	e, _ := smallMKPModel(t)
	for name, run := range map[string]func() (Result, error){
		"SA": func() (Result, error) {
			return SA(context.Background(), e.Model, Params{Shots: 30, Sweeps: 5, Seed: 2})
		},
		"SQA": func() (Result, error) {
			return SQA(context.Background(), e.Model, Params{Shots: 30, Sweeps: 5, Seed: 2})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.BestAfterShot) != 30 {
			t.Fatalf("%s: trace has %d points, want 30", name, len(res.BestAfterShot))
		}
		for i := 1; i < len(res.BestAfterShot); i++ {
			if res.BestAfterShot[i] > res.BestAfterShot[i-1]+1e-12 {
				t.Fatalf("%s: trace not monotone at %d", name, i)
			}
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	e, _ := smallMKPModel(t)
	a, _ := SA(context.Background(), e.Model, Params{Shots: 10, Sweeps: 10, Seed: 5})
	b, _ := SA(context.Background(), e.Model, Params{Shots: 10, Sweeps: 10, Seed: 5})
	if a.Best.Energy != b.Best.Energy {
		t.Error("SA not deterministic under fixed seed")
	}
	c, _ := SQA(context.Background(), e.Model, Params{Shots: 10, Sweeps: 10, Seed: 5})
	d, _ := SQA(context.Background(), e.Model, Params{Shots: 10, Sweeps: 10, Seed: 5})
	if c.Best.Energy != d.Best.Energy {
		t.Error("SQA not deterministic under fixed seed")
	}
}

func TestSteepestDescentReachesLocalMin(t *testing.T) {
	e, _ := smallMKPModel(t)
	c := e.Model.Compile()
	x := make([]bool, c.N)
	energy := SteepestDescent(c, x)
	for i := 0; i < c.N; i++ {
		if c.FlipDelta(x, i) < -1e-12 {
			t.Fatalf("improving flip %d remains after steepest descent", i)
		}
	}
	if math.Abs(energy-c.Energy(x)) > 1e-9 {
		t.Error("returned energy inconsistent with state")
	}
}

func TestHybridNearOptimalAndHonoursContract(t *testing.T) {
	e, want := smallMKPModel(t)
	res, err := Hybrid(context.Background(), e.Model, HybridParams{MinRuntime: 20 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Energy > want+1e-9 {
		t.Errorf("Hybrid best = %v, want ≤ %v", res.Best.Energy, want)
	}
	if res.Elapsed < 20*time.Millisecond {
		t.Errorf("Hybrid returned before its %v contract: %v", 20*time.Millisecond, res.Elapsed)
	}
}

func TestEmptyModelRejected(t *testing.T) {
	if _, err := SA(context.Background(), qubo.NewModel(), Params{}); err == nil {
		t.Error("SA accepted empty model")
	}
	if _, err := SQA(context.Background(), qubo.NewModel(), Params{}); err == nil {
		t.Error("SQA accepted empty model")
	}
	if _, err := Hybrid(context.Background(), qubo.NewModel(), HybridParams{}); err == nil {
		t.Error("Hybrid accepted empty model")
	}
}

func TestSABestEnergyIsExact(t *testing.T) {
	// Regression: SA tracks the objective incrementally (energy += delta,
	// thousands of times per shot), and used to record that drifted sum as
	// Best.Energy. Downstream measure-and-verify loops assume exactness,
	// so the sampler must reconcile against the true objective on record:
	// Best.Energy has to equal Energy(Best.X) to the last bit even after a
	// long schedule.
	m := driftModel(24)
	c := m.Compile()
	res, err := SA(context.Background(), m, Params{Shots: 3, Sweeps: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Best.Energy, c.Energy(res.Best.X); got != want { //lint:allow floatcmp exactness is the contract under test
		t.Errorf("Best.Energy = %v, but Energy(Best.X) = %v (drift %g)", got, want, got-want)
	}
}

func TestSQABestEnergyMatchesModel(t *testing.T) {
	// Slice-accounting audit: SQA evaluates every Trotter slice from
	// scratch in the Ising form; the recorded best must agree with the
	// QUBO objective of the recorded assignment (up to the Ising
	// re-association, hence the tolerance rather than exact equality).
	m := driftModel(16)
	res, err := SQA(context.Background(), m, Params{Shots: 4, Sweeps: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Best.Energy, m.Evaluate(res.Best.X); math.Abs(got-want) > 1e-9 {
		t.Errorf("Best.Energy = %v, but Evaluate(Best.X) = %v", got, want)
	}
}

func TestSamplersDeterministicAcrossWorkers(t *testing.T) {
	// Shots anneal on parallel workers but merge in shot order: Best, the
	// per-shot trace and the OnSample sequence must be bit-identical at
	// any worker count.
	m := driftModel(12)
	type trace struct {
		res     Result
		samples []Sample
	}
	for name, run := range map[string]func(Params) (Result, error){
		"SA":  func(p Params) (Result, error) { return SA(context.Background(), m, p) },
		"SQA": func(p Params) (Result, error) { return SQA(context.Background(), m, p) },
	} {
		runTrace := func() trace {
			var tr trace
			p := Params{Shots: 8, Sweeps: 20, Seed: 3,
				OnSample: func(x []bool, e float64) {
					tr.samples = append(tr.samples, Sample{X: append([]bool(nil), x...), Energy: e})
				}}
			res, err := run(p)
			if err != nil {
				t.Fatal(err)
			}
			tr.res = res
			return tr
		}
		prev := parallel.SetWorkers(1)
		want := runTrace()
		for _, w := range []int{2, 8} {
			parallel.SetWorkers(w)
			got := runTrace()
			if got.res.Best.Energy != want.res.Best.Energy { //lint:allow floatcmp determinism contract is bit-identical
				t.Errorf("%s workers=%d: Best.Energy = %v, want %v", name, w, got.res.Best.Energy, want.res.Best.Energy)
			}
			if len(got.res.BestAfterShot) != len(want.res.BestAfterShot) {
				t.Fatalf("%s workers=%d: trace length %d, want %d", name, w, len(got.res.BestAfterShot), len(want.res.BestAfterShot))
			}
			for i := range want.res.BestAfterShot {
				if got.res.BestAfterShot[i] != want.res.BestAfterShot[i] { //lint:allow floatcmp determinism contract is bit-identical
					t.Fatalf("%s workers=%d: BestAfterShot[%d] = %v, want %v", name, w, i, got.res.BestAfterShot[i], want.res.BestAfterShot[i])
				}
			}
			for i := range want.res.Best.X {
				if got.res.Best.X[i] != want.res.Best.X[i] {
					t.Fatalf("%s workers=%d: Best.X differs at %d", name, w, i)
				}
			}
			if len(got.samples) != len(want.samples) {
				t.Fatalf("%s workers=%d: %d OnSample calls, want %d", name, w, len(got.samples), len(want.samples))
			}
			for i := range want.samples {
				if got.samples[i].Energy != want.samples[i].Energy { //lint:allow floatcmp determinism contract is bit-identical
					t.Fatalf("%s workers=%d: OnSample[%d].Energy = %v, want %v", name, w, i, got.samples[i].Energy, want.samples[i].Energy)
				}
				for j := range want.samples[i].X {
					if got.samples[i].X[j] != want.samples[i].X[j] {
						t.Fatalf("%s workers=%d: OnSample[%d].X differs at %d", name, w, i, j)
					}
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}

func TestMoreShotsHelpAtFixedBudget(t *testing.T) {
	// Table V's qualitative finding: with a fixed Δt·s budget, many
	// short anneals (Δt=1) do at least as well as few long ones (Δt=50)
	// on these instances.
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		t.Fatal(err)
	}
	e, err := qubo.FormulateMKP(d.Build(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SQA(context.Background(), e.Model, Params{Shots: 100, Sweeps: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	few, err := SQA(context.Background(), e.Model, Params{Shots: 2, Sweeps: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if many.Best.Energy > few.Best.Energy+1e-9 {
		t.Errorf("many short anneals (%v) worse than few long ones (%v)",
			many.Best.Energy, few.Best.Energy)
	}
}
