package embedding

import (
	"context"
	"testing"

	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/qubo"
)

func TestChimeraShape(t *testing.T) {
	h := Chimera(2, 4)
	if h.N != 2*2*2*4 {
		t.Fatalf("N = %d, want 32", h.N)
	}
	// Couplers: cells·l² intra + vertical (m-1)·m·l + horizontal m·(m-1)·l.
	want := 4*16 + 2*4 + 2*4
	if got := h.NumCouplers(); got != want {
		t.Errorf("couplers = %d, want %d", got, want)
	}
	// Degree bound l+2.
	for q := 0; q < h.N; q++ {
		if d := len(h.Neighbors(q)); d > 6 {
			t.Fatalf("qubit %d has degree %d > 6", q, d)
		}
	}
	// Bipartite inside a cell: qubit 0 (left) connects to 4..7 (right).
	for r := 4; r < 8; r++ {
		if !h.HasEdge(0, r) {
			t.Errorf("missing intra-cell edge 0-%d", r)
		}
	}
	if h.HasEdge(0, 1) {
		t.Error("left qubits 0 and 1 should not couple")
	}
}

func TestChimeraInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Chimera(0,4) did not panic")
		}
	}()
	Chimera(0, 4)
}

func triangleModel() *qubo.Model {
	m := qubo.NewModel()
	a, b, c := m.AddVar("a"), m.AddVar("b"), m.AddVar("c")
	m.AddLinear(a, -1)
	m.AddLinear(b, -1)
	m.AddLinear(c, -1)
	m.AddQuad(a, b, 2)
	m.AddQuad(b, c, 2)
	m.AddQuad(a, c, 2)
	return m
}

func TestEmbedTriangle(t *testing.T) {
	// K3 does not embed natively into bipartite Chimera cells without a
	// chain, so at least one chain must be longer than 1.
	m := triangleModel()
	hw := Chimera(2, 4)
	e, err := Embed(m, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(m); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Variables != 3 {
		t.Errorf("variables = %d", s.Variables)
	}
	if s.PhysicalQubits < 4 {
		t.Errorf("K3 embedded with %d qubits; needs ≥ 4 on Chimera", s.PhysicalQubits)
	}
}

func TestEmbedMKPModelAndValidate(t *testing.T) {
	// The anneal datasets are dense constraint graphs (the complement of
	// the k-plex input); formulate against their complement so the QUBO
	// carries the full slack structure.
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := qubo.FormulateMKP(d.Build().Complement(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var e *Embedding
	var err2 error
	for _, size := range []int{6, 8, 10} {
		e, err2 = Embed(enc.Model, Chimera(size, 8), 1)
		if err2 == nil {
			break
		}
	}
	if err2 != nil {
		t.Fatal(err2)
	}
	if err := e.Validate(enc.Model); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.AvgChain < 1 {
		t.Errorf("average chain %v < 1", s.AvgChain)
	}
	if s.PhysicalQubits <= s.Variables {
		t.Errorf("expected chains: %d physical vs %d logical", s.PhysicalQubits, s.Variables)
	}
}

func TestEmbedFailsOnTinyHardware(t *testing.T) {
	d, _ := graph.PaperDataset("D_{10,40}")
	enc, err := qubo.FormulateMKP(d.Build().Complement(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Embed(enc.Model, Chimera(1, 2), 1); err == nil {
		t.Error("embedding into a 4-qubit cell should fail")
	}
}

func TestPhysicalIsingGroundStateMatchesLogical(t *testing.T) {
	// Brute-force the physical Ising of a small model: the minimum must
	// unembed to the logical optimum with unbroken chains.
	m := triangleModel()
	hw := Chimera(2, 4)
	e, err := Embed(m, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPhysical(m, e, 0) // auto chain strength
	if err != nil {
		t.Fatal(err)
	}
	n := p.Ising.N
	if n > 20 {
		t.Fatalf("physical model too large to brute force: %d", n)
	}
	bestE := 0.0
	var bestS []int8
	first := true
	for mask := 0; mask < 1<<uint(n); mask++ {
		s := make([]int8, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if v := p.Ising.Energy(s); first || v < bestE {
			bestE, bestS, first = v, s, false
		}
	}
	if frac := p.ChainBreakFraction(bestS); frac != 0 {
		t.Errorf("ground state has broken chains: %v", frac)
	}
	x, logicalE := p.Unembed(bestS)
	// Logical optimum of the triangle model: exactly one variable set
	// (−1); two vars cost −2+2 = 0.
	if logicalE != -1 {
		t.Errorf("unembedded energy = %v, want -1 (x=%v)", logicalE, x)
	}
}

func TestSampleEmbeddedSolvesSmallMKP(t *testing.T) {
	g := graph.Example6()
	enc, err := qubo.FormulateMKP(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hw := Chimera(6, 4)
	e, err := Embed(enc.Model, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Track the best valid k-plex over every readout via the OnSample
	// hook — the documented pattern, since the minimum-energy state of
	// an embedded anneal need not decode to the largest valid set.
	bestSize := 0
	p := anneal.Params{Shots: 80, Sweeps: 40, Seed: 3,
		OnSample: func(x []bool, _ float64) {
			if set, valid := enc.DecodeValid(x); valid && len(set) > bestSize {
				bestSize = len(set)
			}
		}}
	res, err := SampleEmbedded(context.Background(), enc.Model, e, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if set, valid := enc.DecodeValid(res.Best.X); !valid {
		t.Fatalf("embedded sampling returned invalid set %v", set)
	}
	if bestSize < 3 {
		t.Errorf("embedded sampling found size %d, want ≥ 3 (optimum 4)", bestSize)
	}
}

func TestChainBreakFraction(t *testing.T) {
	m := triangleModel()
	hw := Chimera(2, 4)
	e, err := Embed(m, hw, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPhysical(m, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int8, p.Ising.N)
	for i := range all {
		all[i] = 1
	}
	if f := p.ChainBreakFraction(all); f != 0 {
		t.Errorf("aligned spins report break fraction %v", f)
	}
}

func TestCliqueEmbedAllPairsAdjacent(t *testing.T) {
	hw := Chimera(3, 4)
	e, err := CliqueEmbed(12, hw) // full capacity 3·4
	if err != nil {
		t.Fatal(err)
	}
	// Every chain connected, disjoint, uniform length 2m.
	seen := map[int]bool{}
	for v, ch := range e.Chains {
		if len(ch) != 6 {
			t.Fatalf("chain %d has %d qubits, want 6", v, len(ch))
		}
		if !e.connected(ch) {
			t.Fatalf("chain %d disconnected", v)
		}
		for _, q := range ch {
			if seen[q] {
				t.Fatalf("qubit %d reused", q)
			}
			seen[q] = true
		}
	}
	// Every pair of chains has a coupler.
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if e.couplerBetween(u, v) == [2]int{-1, -1} {
				t.Fatalf("chains %d and %d not adjacent", u, v)
			}
		}
	}
}

func TestCliqueEmbedCapacity(t *testing.T) {
	hw := Chimera(2, 4)
	if _, err := CliqueEmbed(9, hw); err == nil {
		t.Error("over-capacity clique embedding accepted")
	}
	if _, err := CliqueEmbed(0, hw); err == nil {
		t.Error("zero variables accepted")
	}
	if CliqueGridFor(12, 4) != 3 || CliqueGridFor(13, 4) != 4 || CliqueGridFor(1, 8) != 1 {
		t.Error("CliqueGridFor arithmetic wrong")
	}
}

func TestCliqueEmbedSamplesCorrectly(t *testing.T) {
	// End-to-end: clique-embed the triangle model and brute-force the
	// physical Ising; ground state must match the logical optimum.
	m := triangleModel()
	hw := Chimera(1, 4)
	e, err := CliqueEmbed(3, hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(m); err != nil {
		t.Fatal(err)
	}
	p, err := BuildPhysical(m, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, bestE := []int8(nil), 0.0
	for mask := 0; mask < 1<<uint(p.Ising.N); mask++ {
		s := make([]int8, p.Ising.N)
		for i := range s {
			if mask&(1<<uint(i)) != 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if v := p.Ising.Energy(s); best == nil || v < bestE {
			best, bestE = s, v
		}
	}
	if _, logicalE := p.Unembed(best); logicalE != -1 {
		t.Errorf("clique-embedded ground state unembeds to %v, want -1", logicalE)
	}
}
