package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fastoracle"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/oracle"
)

func TestQTKPOnExample(t *testing.T) {
	g := graph.Example6()
	res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("qTKP did not find the size-4 2-plex")
	}
	want := []int{0, 1, 3, 4}
	if len(res.Set) != 4 {
		t.Fatalf("Set = %v", res.Set)
	}
	for i, v := range want {
		if res.Set[i] != v {
			t.Fatalf("Set = %v, want %v", res.Set, want)
		}
	}
	if res.M != 1 {
		t.Errorf("M = %d, want 1", res.M)
	}
	if res.Iterations != 6 {
		t.Errorf("Iterations = %d, want 6 (paper Fig. 9)", res.Iterations)
	}
	if res.ErrorProbability > 0.01 {
		t.Errorf("ErrorProbability = %v, want < 0.01", res.ErrorProbability)
	}
	if res.QPUTime <= 0 || res.Gates <= 0 {
		t.Error("cost accounting missing")
	}
}

func TestQTKPAbsence(t *testing.T) {
	g := graph.Example6()
	res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 5})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res.Found {
		t.Errorf("qTKP claimed a size-5 2-plex exists: %v", res.Set)
	}
}

func TestQTKPWithQuantumCounting(t *testing.T) {
	g := graph.Example6()
	res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 4, Gate: &GateOptions{QuantumCounting: true, CountingQubits: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("qTKP with quantum counting failed")
	}
	if res.M < 1 || res.M > 2 {
		t.Errorf("quantum counting estimated M = %d, want ≈ 1", res.M)
	}
}

func TestQMKPMatchesClassicalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(3)
		g := graph.Gnp(n, 0.45, rng.Int63())
		for k := 1; k <= 3; k++ {
			want, err := kplex.Naive(g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: k, Gate: &GateOptions{Rng: rand.New(rand.NewSource(rng.Int63()))}})
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != want.Size {
				t.Fatalf("n=%d k=%d: qMKP size %d != optimum %d", n, k, got.Size, want.Size)
			}
			if !g.IsKPlex(got.Set, k) {
				t.Fatalf("qMKP returned non-k-plex %v", got.Set)
			}
		}
	}
}

func TestQMKPProgressiveGuarantee(t *testing.T) {
	// The first feasible solution must be at least half the optimum and
	// must arrive within a strict minority of the total modelled time.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(8, 0.5, rng.Int63())
		res, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(rng.Int63()))}})
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstFeasible == nil {
			t.Fatal("no feasible probe recorded (every graph has a 1-plex of size 1)")
		}
		if 2*res.FirstFeasible.Size < res.Size {
			t.Errorf("first feasible size %d < half of optimum %d",
				res.FirstFeasible.Size, res.Size)
		}
		if res.FirstFeasible.CumGates > res.Gates {
			t.Error("cumulative accounting out of order")
		}
	}
}

func TestQMKPOnPaperDatasets(t *testing.T) {
	// Table II: max 2-plex sizes 4, 4, 5, 6.
	wants := map[string]int{"G_{7,8}": 4, "G_{8,10}": 4, "G_{9,15}": 5, "G_{10,23}": 6}
	for _, d := range graph.GateDatasets() {
		want, ok := wants[d.Name]
		if !ok {
			continue
		}
		res, err := SolveMKP(context.Background(), d.Build(), Spec{Algo: AlgoMKP, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != want {
			t.Errorf("%s: qMKP size %d, want %d", d.Name, res.Size, want)
		}
	}
}

func TestQMKPValidation(t *testing.T) {
	if _, err := SolveMKP(context.Background(), graph.New(0), Spec{Algo: AlgoMKP, K: 1}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := SolveMKP(context.Background(), graph.Example6(), Spec{Algo: AlgoMKP, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SolveMKP(context.Background(), graph.Example6(), Spec{Algo: AlgoMKP, K: 7}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestOracleBreakdownShares(t *testing.T) {
	g := graph.Example6()
	orc, err := oracle.BuildOpts(g, 2, 4, oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := orc.ComponentGates()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("empty breakdown")
	}
	if counts[oracle.BlockDegreeCount] <= counts[oracle.BlockDegreeCompare] {
		t.Error("degree counting should dominate degree comparison (Table IV)")
	}
}

func TestQMKPDeterministicWithFixedSeed(t *testing.T) {
	g := graph.Example6()
	a, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(7))}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(7))}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != b.Size || a.Gates != b.Gates || len(a.Progress) != len(b.Progress) {
		t.Error("qMKP not deterministic under a fixed seed")
	}
}

func TestQMKPWithClassicalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		g := graph.Gnp(8, 0.5, rng.Int63())
		plain, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(1))}})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(1)), UseClassicalBounds: true}})
		if err != nil {
			t.Fatal(err)
		}
		if bounded.Size != plain.Size {
			t.Fatalf("bounded size %d != plain %d", bounded.Size, plain.Size)
		}
		if !g.IsKPlex(bounded.Set, 2) {
			t.Fatalf("bounded qMKP returned non-2-plex %v", bounded.Set)
		}
		// The narrowed window cannot need more probes than the full one
		// (it may still spend comparable oracle calls inside a probe).
		if len(bounded.Progress) > len(plain.Progress) {
			t.Errorf("bounds increased probe count: %d > %d",
				len(bounded.Progress), len(plain.Progress))
		}
	}
}

func TestQMKPFastPathBitIdenticalToCircuit(t *testing.T) {
	// The fast path must not merely find the same optimum — every probe,
	// draw, and cost figure except wall-clock must match the circuit
	// path's, because both feed the same (pred, M, gates) into the same
	// seeded engine. This is the guarantee that lets benchmarks compare
	// the two as the *same* algorithm at different speeds.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		n := 6 + rng.Intn(3)
		g := graph.Gnp(n, 0.45, rng.Int63())
		for _, qc := range []bool{false, true} {
			fast, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(9)), QuantumCounting: qc}})
			if err != nil {
				t.Fatal(err)
			}
			circ, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(9)), QuantumCounting: qc, DisableFastPath: true}})
			if err != nil {
				t.Fatal(err)
			}
			if fast.Size != circ.Size || fast.Gates != circ.Gates ||
				fast.OracleCalls != circ.OracleCalls ||
				fast.ErrorProbability != circ.ErrorProbability {
				t.Fatalf("n=%d qc=%v: fast (size=%d gates=%d calls=%d) vs circuit (size=%d gates=%d calls=%d)",
					n, qc, fast.Size, fast.Gates, fast.OracleCalls,
					circ.Size, circ.Gates, circ.OracleCalls)
			}
			if len(fast.Set) != len(circ.Set) {
				t.Fatalf("n=%d qc=%v: sets differ: %v vs %v", n, qc, fast.Set, circ.Set)
			}
			for i := range fast.Set {
				if fast.Set[i] != circ.Set[i] {
					t.Fatalf("n=%d qc=%v: sets differ: %v vs %v", n, qc, fast.Set, circ.Set)
				}
			}
			if len(fast.Progress) != len(circ.Progress) {
				t.Fatalf("n=%d qc=%v: probe sequences differ: %d vs %d probes",
					n, qc, len(fast.Progress), len(circ.Progress))
			}
			for i := range fast.Progress {
				fp, cp := fast.Progress[i], circ.Progress[i]
				if fp.T != cp.T || fp.Found != cp.Found || fp.Size != cp.Size || fp.CumGates != cp.CumGates {
					t.Fatalf("n=%d qc=%v probe %d: fast %+v vs circuit %+v", n, qc, i, fp, cp)
				}
			}
		}
	}
}

func TestQTKPFastPathBitIdenticalToCircuit(t *testing.T) {
	g := graph.Gnm(8, 14, 5)
	fast, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 3, Gate: &GateOptions{Rng: rand.New(rand.NewSource(4))}})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 3, Gate: &GateOptions{Rng: rand.New(rand.NewSource(4)), DisableFastPath: true}})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Found != circ.Found || fast.M != circ.M || fast.Gates != circ.Gates ||
		fast.Iterations != circ.Iterations || fast.OracleCalls != circ.OracleCalls {
		t.Fatalf("fast %+v vs circuit %+v", fast, circ)
	}
	for i := range fast.Set {
		if fast.Set[i] != circ.Set[i] {
			t.Fatalf("sets differ: %v vs %v", fast.Set, circ.Set)
		}
	}
}

// The gate path above 20 vertices, pinned. The solver once switched from
// the exhaustive table to an on-demand store past n = 20; these answers
// were recorded from that store, and the one table behind every probe
// must reproduce them: sets, progress streams, oracle calls and gates.
func TestGatePathPinnedAboveTwentyVertices(t *testing.T) {
	if MaxGateVertices > fastoracle.TableMaxVertices {
		t.Fatalf("MaxGateVertices = %d exceeds fastoracle.TableMaxVertices = %d: some gate instance would get no table",
			MaxGateVertices, fastoracle.TableMaxVertices)
	}
	type mkpWant struct {
		bounds   bool
		set      []int
		progress []ProgressPoint
		calls    int
		gates    int64
	}
	type tkpWant struct {
		T, m, iterations, calls int
		set                     []int
		gates                   int64
	}
	for _, c := range []struct {
		n, m int
		mkp  []mkpWant
		tkp  tkpWant
	}{
		{21, 63, []mkpWant{
			{false, []int{0, 4, 5, 7, 20}, []ProgressPoint{
				{T: 11, CumGates: 18303447},
				{T: 6, CumGates: 36604620},
				{T: 3, Found: true, Size: 3, Set: []int{1, 8, 9}, CumGates: 37473825},
				{T: 5, Found: true, Size: 5, Set: []int{0, 4, 5, 7, 20}, CumGates: 42753334},
			}, 2660, 42753334},
			{true, []int{0, 2, 5, 7, 9}, []ProgressPoint{
				{T: 6, CumGates: 18301173},
				{T: 5, Found: true, Size: 5, Set: []int{0, 2, 4, 9, 17}, CumGates: 23580682},
			}, 1467, 23580682},
		}, tkpWant{T: 6, m: 0, iterations: 1137, calls: 1138, gates: 18301173}},
		{22, 110, []mkpWant{
			{false, []int{0, 3, 8, 11, 20, 21}, []ProgressPoint{
				{T: 12, CumGates: 20900806},
				{T: 6, Found: true, Size: 6, Set: []int{0, 3, 8, 11, 20, 21}, CumGates: 23591414},
				{T: 9, CumGates: 44492220},
				{T: 8, CumGates: 65389810},
				{T: 7, CumGates: 86293832},
			}, 6644, 86293832},
			{true, []int{0, 1, 3, 4, 8, 20}, []ProgressPoint{
				{T: 8, CumGates: 20897590},
				{T: 7, CumGates: 41801612},
				{T: 6, Found: true, Size: 6, Set: []int{1, 3, 7, 13, 15, 20}, CumGates: 44492220},
			}, 3426, 44492220},
		}, tkpWant{T: 6, m: 60, iterations: 207, calls: 208, set: []int{1, 3, 8, 13, 18, 21}, gates: 2690608}},
	} {
		g := graph.Gnm(c.n, c.m, 1)
		for _, w := range c.mkp {
			res, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2,
				Gate: &GateOptions{Rng: rand.New(rand.NewSource(1)), UseClassicalBounds: w.bounds}})
			if err != nil {
				t.Fatalf("G(%d,%d) bounds=%v: %v", c.n, c.m, w.bounds, err)
			}
			if !slices.Equal(res.Set, w.set) || res.Size != len(w.set) || res.OracleCalls != w.calls || res.Gates != w.gates {
				t.Errorf("G(%d,%d) bounds=%v: set %v (size %d), %d calls, %d gates; want %v, %d calls, %d gates",
					c.n, c.m, w.bounds, res.Set, res.Size, res.OracleCalls, res.Gates, w.set, w.calls, w.gates)
			}
			if len(res.Progress) != len(w.progress) {
				t.Fatalf("G(%d,%d) bounds=%v: %d probes, want %d", c.n, c.m, w.bounds, len(res.Progress), len(w.progress))
			}
			for i, p := range res.Progress {
				q := w.progress[i]
				if p.T != q.T || p.Found != q.Found || p.Size != q.Size || !slices.Equal(p.Set, q.Set) || p.CumGates != q.CumGates {
					t.Errorf("G(%d,%d) bounds=%v probe %d: %+v, want %+v", c.n, c.m, w.bounds, i, p, q)
				}
			}
		}
		w := c.tkp
		res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: w.T,
			Gate: &GateOptions{Rng: rand.New(rand.NewSource(1))}})
		if w.set == nil && !errors.Is(err, ErrInfeasible) || w.set != nil && err != nil {
			t.Fatalf("G(%d,%d) T=%d: err = %v", c.n, c.m, w.T, err)
		}
		if res.Found != (w.set != nil) || !slices.Equal(res.Set, w.set) || res.M != w.m ||
			res.Iterations != w.iterations || res.OracleCalls != w.calls || res.Gates != w.gates {
			t.Errorf("G(%d,%d) T=%d: %+v, want %+v", c.n, c.m, w.T, res, w)
		}
	}
}
