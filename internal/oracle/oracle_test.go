package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/qsim"
)

func TestOracleMatchesClassicalPredicateExample(t *testing.T) {
	g := graph.Example6()
	for _, tc := range []struct{ k, T int }{{2, 4}, {2, 3}, {1, 3}, {3, 4}, {2, 1}} {
		o, err := Build(g, tc.k, tc.T)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(0); mask < 64; mask++ {
			set := graph.MaskSubset(mask, 6)
			want := len(set) >= tc.T && g.IsKPlex(set, tc.k)
			if got := o.Marked(mask); got != want {
				t.Fatalf("k=%d T=%d mask=%06b: oracle=%v classical=%v",
					tc.k, tc.T, mask, got, want)
			}
		}
	}
}

func TestOracleMatchesClassicalPredicateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(4) // 5..8 vertices
		g := graph.Gnp(n, 0.5, rng.Int63())
		k := 1 + rng.Intn(3)
		T := 1 + rng.Intn(n)
		o, err := Build(g, k, T)
		if err != nil {
			t.Fatal(err)
		}
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			set := graph.MaskSubset(mask, n)
			want := len(set) >= T && g.IsKPlex(set, k)
			if got := o.Marked(mask); got != want {
				t.Fatalf("n=%d k=%d T=%d mask=%b: oracle=%v classical=%v",
					n, k, T, mask, got, want)
			}
		}
	}
}

func TestMarkedStrictResetContract(t *testing.T) {
	g := graph.Example6()
	o, err := Build(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 64; mask++ {
		marked, counts, err := o.MarkedStrict(mask)
		if err != nil {
			t.Fatalf("mask %06b: %v", mask, err)
		}
		if marked != o.Marked(mask) {
			t.Fatalf("mask %06b: strict and fast paths disagree", mask)
		}
		if len(counts) == 0 {
			t.Fatal("no gate accounting recorded")
		}
	}
	// Exactly one marked subset: the paper's {v1,v2,v4,v5} = |110110> = 54.
	tt := o.TruthTable()
	markedCount := 0
	markedAt := -1
	for m, b := range tt {
		if b {
			markedCount++
			markedAt = m
		}
	}
	if markedCount != 1 || markedAt != 54 {
		t.Errorf("marked set: count=%d at=%d, want 1 at 54", markedCount, markedAt)
	}
}

func TestComponentGateShares(t *testing.T) {
	// Degree counting must dominate the oracle gate budget, and its
	// share must grow with n (Table IV's observation: 77.5% → 88.6%).
	share := func(n int) float64 {
		g := graph.Gnm(n, n*(n-1)/4, 3)
		o, err := Build(g, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		counts := o.ComponentGates()
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(counts[BlockDegreeCount]) / float64(total)
	}
	s7, s10 := share(7), share(10)
	if s7 < 0.5 {
		t.Errorf("degree-count share at n=7 is %.2f, expected dominant (>0.5)", s7)
	}
	if s10 <= s7 {
		t.Errorf("degree-count share should grow with n: %.3f (n=7) vs %.3f (n=10)", s7, s10)
	}
}

func TestOracleQubitComplexity(t *testing.T) {
	// Space complexity O(n² log n): the qubit count at n=12 must not
	// exceed the n=6 count scaled by (12²·log12)/(6²·log6) with slack.
	q := func(n int) int {
		g := graph.Gnm(n, n*(n-1)/4, 3)
		o, err := Build(g, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return o.NumQubits()
	}
	q6, q12 := q(6), q(12)
	bound := q6 * (12 * 12 * 4) / (6 * 6 * 3) * 2 // generous constant slack
	if q12 > bound {
		t.Errorf("qubit growth n=6→12: %d → %d exceeds O(n² log n) envelope %d", q6, q12, bound)
	}
}

func TestBuildValidation(t *testing.T) {
	g := graph.Example6()
	if _, err := Build(g, 0, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Build(g, 2, 0); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := Build(g, 2, 7); err == nil {
		t.Error("T>n accepted")
	}
	if _, err := Build(g, 7, 3); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Build(graph.New(0), 1, 1); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestOracleEdgelessAndCompleteGraphs(t *testing.T) {
	// Edgeless graph: complement is complete; a k-plex is any set of
	// size ≤ k (every vertex has 0 neighbours, needs ≥ |P|-k).
	edgeless := graph.New(5)
	o, err := Build(edgeless, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 32; mask++ {
		set := graph.MaskSubset(mask, 5)
		want := len(set) == 2 // size ≥ 2 plexes have exactly size ≤ k = 2
		if len(set) > 2 {
			want = false
		}
		if got := o.Marked(mask); got != want {
			t.Fatalf("edgeless mask %05b: got %v want %v", mask, got, want)
		}
	}

	// Complete graph: everything is a k-plex; oracle = size filter.
	complete := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			complete.AddEdge(u, v)
		}
	}
	o2, err := Build(complete, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 32; mask++ {
		want := len(graph.MaskSubset(mask, 5)) >= 3
		if got := o2.Marked(mask); got != want {
			t.Fatalf("complete mask %05b: got %v want %v", mask, got, want)
		}
	}
}

func TestTotalGatesDoublesForUncompute(t *testing.T) {
	g := graph.Example6()
	o, err := Build(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// U_check + 1 flip + U_check† = 2·|U_check| + 1.
	if o.TotalGates()%2 != 1 {
		t.Errorf("total gate count %d should be odd (2·fwd + flip)", o.TotalGates())
	}
}

func TestCompactOracleMatchesAdderOracle(t *testing.T) {
	g := graph.Example6()
	adder, err := Build(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := BuildOpts(g, 2, 4, Options{CompactCounting: true})
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 64; mask++ {
		if adder.Marked(mask) != compact.Marked(mask) {
			t.Fatalf("variants disagree at mask %06b", mask)
		}
	}
	if compact.NumQubits() >= adder.NumQubits() {
		t.Errorf("compact oracle uses %d qubits, adder oracle %d — expected fewer",
			compact.NumQubits(), adder.NumQubits())
	}
}

func TestTruthTableDeterministicAcrossWorkers(t *testing.T) {
	// The truth-table sweep fans masks out over workers, each with its own
	// scratch register; the table must be byte-identical at any worker
	// count and agree with the serial fast-path predicate.
	g := graph.Gnm(10, 23, 7)
	o, err := Build(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want := o.TruthTable()
	for mask := range want {
		if want[mask] != o.Marked(uint64(mask)) {
			t.Fatalf("serial truth table disagrees with Marked at mask %b", mask)
		}
	}
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got := o.TruthTable()
		for mask := range want {
			if got[mask] != want[mask] {
				t.Fatalf("workers=%d: truth table differs at mask %b", w, mask)
			}
		}
		// The reset-contract sweep shares the fan-out; it must still pass
		// (and report deterministically) on every worker count.
		if err := o.VerifyResetContract(16); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}

func TestFastPathMatchesCircuitExhaustive(t *testing.T) {
	// Acceptance criterion: the semantic fast path must be bit-identical
	// to the circuit truth table on exhaustive sweeps up to n = 12, with
	// and without the compact counting variant underneath.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(7) // 6..12
		g := graph.Gnp(n, 0.3+rng.Float64()*0.4, rng.Int63())
		k := 1 + rng.Intn(3)
		T := 1 + rng.Intn(n)
		compact := trial%2 == 1
		circuit, err := BuildOpts(g, k, T, Options{CompactCounting: compact})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := BuildOpts(g, k, T, Options{FastPath: true, CompactCounting: compact})
		if err != nil {
			t.Fatal(err)
		}
		if fast.fast == nil {
			t.Fatal("FastPath build did not install the semantic evaluator")
		}
		ctt, ftt := circuit.TruthTable(), fast.TruthTable()
		for mask := range ctt {
			if ctt[mask] != ftt[mask] {
				t.Fatalf("n=%d k=%d T=%d mask=%b: circuit table %v, fast table %v",
					n, k, T, mask, ctt[mask], ftt[mask])
			}
			if got, want := fast.Marked(uint64(mask)), fast.MarkedCircuit(uint64(mask)); got != want {
				t.Fatalf("n=%d k=%d T=%d mask=%b: fast Marked %v, circuit replay %v",
					n, k, T, mask, got, want)
			}
		}
	}
}

func TestFastPathTruthTableDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Gnm(12, 30, 7)
	o, err := BuildOpts(g, 2, 4, Options{FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want := o.TruthTable()
	for _, w := range []int{2, 8} {
		parallel.SetWorkers(w)
		got := o.TruthTable()
		for mask := range want {
			if got[mask] != want[mask] {
				t.Fatalf("workers=%d: fast truth table differs at mask %b", w, mask)
			}
		}
	}
}

func TestFastPathCircuitStaysReversible(t *testing.T) {
	// Enabling the fast path must not change what gets compiled: the full
	// reversible circuit is still built, still lint-clean, and still
	// satisfies the reset contract (which now cross-checks the semantic
	// path against strict replay on every probed mask).
	o, err := BuildOpts(graph.Example6(), 2, 4, Options{FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	issues := qsim.LintCircuit(o.Circuit(), qsim.LintOptions{
		ReversibleBlocks: []string{BlockEncoding, BlockDegreeCount, BlockDegreeCompare, BlockSizeCheck},
	})
	for _, is := range issues {
		t.Errorf("lint: %s", is)
	}
	if o.TotalGates() == 0 {
		t.Error("fast-path build compiled no circuit")
	}
	if err := o.VerifyResetContract(32); err != nil {
		t.Error(err)
	}
}
