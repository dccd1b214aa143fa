package oracle

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/qsim"
)

// Strict mode wires the Level-2 circuit linter and the sampled reset
// contract into oracle construction itself.

func TestBuildStrictAcceptsHealthyOracle(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{Strict: true})
	if err != nil {
		t.Fatalf("strict build rejected a healthy oracle: %v", err)
	}
	if o.TotalGates() == 0 {
		t.Fatal("strict build produced an empty circuit")
	}
}

func TestBuildStrictCompactCounting(t *testing.T) {
	g := graph.Example6()
	if _, err := BuildOpts(g, 2, 4, Options{Strict: true, CompactCounting: true}); err != nil {
		t.Fatalf("strict build rejected the compact-counting variant: %v", err)
	}
}

func TestCompiledOracleCircuitPassesLint(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	issues := qsim.LintCircuit(o.Circuit(), qsim.LintOptions{ReversibleBlocks: []string{
		BlockEncoding, BlockDegreeCount, BlockDegreeCompare, BlockSizeCheck,
	}})
	for _, iss := range issues {
		t.Errorf("oracle circuit: %s", iss)
	}
	// The ledger the complexity accounting reads must balance exactly.
	total := 0
	for _, n := range o.ComponentGates() {
		total += n
	}
	if total != o.TotalGates() {
		t.Errorf("component gates sum to %d, circuit has %d", total, o.TotalGates())
	}
}

func TestVerifyResetContractDetectsSabotage(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.VerifyResetContract(8); err != nil {
		t.Fatalf("healthy oracle failed the reset contract: %v", err)
	}
	// Dirty one ancilla after the uncompute stage: strict mode must
	// reject what the fast path cannot see.
	o.circuit.X(o.vertex[len(o.vertex)-1] + 3)
	if err := o.VerifyResetContract(8); err == nil {
		t.Error("sampled reset contract missed a dirty ancilla")
	}
}
