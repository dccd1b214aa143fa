package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/qubo"
)

func TestQAMKPSolvesExample(t *testing.T) {
	g := graph.Example6()
	res, err := SolveAnneal(context.Background(), g, Spec{Algo: AlgoAnneal, K: 2, Anneal: &AnnealOptions{Shots: 150, DeltaT: 20, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("qaMKP returned invalid set %v", res.Set)
	}
	if res.Size != 4 {
		t.Errorf("qaMKP size = %d, want 4", res.Size)
	}
	if res.Cost > -4+1e-9 {
		t.Errorf("qaMKP cost = %v, want ≤ -4", res.Cost)
	}
	if res.Variables != res.SlackVars+6 {
		t.Errorf("variable accounting: %d total, %d slack", res.Variables, res.SlackVars)
	}
	if len(res.Trace) != 150 {
		t.Errorf("trace length = %d, want 150", len(res.Trace))
	}
}

// TestQAMKPModelValidates pins the Level-2 QUBO linter into the qaMKP
// path: the encoding SolveAnneal anneals on (same graph, k and default R)
// must pass qubo.ValidateModel — FormulateMKP also runs it as a self-check
// on every SolveAnneal call.
func TestQAMKPModelValidates(t *testing.T) {
	g := graph.Example6()
	enc, err := qubo.FormulateMKP(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := qubo.ValidateModel(enc); err != nil {
		t.Errorf("qaMKP encoding rejected by ValidateModel: %v", err)
	}
	if _, err := SolveAnneal(context.Background(), g, Spec{Algo: AlgoAnneal, K: 2, Anneal: &AnnealOptions{Shots: 10, DeltaT: 5, Seed: 3}}); err != nil {
		t.Errorf("SolveAnneal with validated encoding failed: %v", err)
	}
}

func TestQAMKPRejectsBadR(t *testing.T) {
	if _, err := SolveAnneal(context.Background(), graph.Example6(), Spec{Algo: AlgoAnneal, K: 2, Anneal: &AnnealOptions{R: 0.5}}); err == nil {
		t.Error("R < 1 accepted")
	}
}
