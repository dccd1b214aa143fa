package oracle

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/qsim"
)

// Fault injection: the strict evaluation path must catch a broken
// uncompute stage (ancillae left dirty) and a corrupted output wiring.
// These are the failure modes a miscompiled oracle would actually have,
// and MarkedStrict is the guard the Grover engine's exactness rests on.

func TestStrictDetectsBrokenUncompute(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: flip an ancilla-affecting gate by appending an extra X
	// on a mid-circuit ancilla AFTER the inverse — the reset contract is
	// now violated for every input.
	o.circuit.X(o.vertex[len(o.vertex)-1] + 3) // some ancilla qubit
	broken := false
	for mask := uint64(0); mask < 64; mask++ {
		if _, _, err := o.MarkedStrict(mask); err != nil {
			broken = true
			break
		}
	}
	if !broken {
		t.Error("MarkedStrict did not detect the dirty ancilla")
	}
}

func TestStrictDetectsCorruptedVertexRegister(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the vertex register after the uncompute.
	o.circuit.X(o.vertex[0])
	broken := false
	for mask := uint64(0); mask < 64; mask++ {
		if _, _, err := o.MarkedStrict(mask); err != nil {
			broken = true
			break
		}
	}
	if !broken {
		t.Error("MarkedStrict did not detect the corrupted vertex register")
	}
}

func TestStrictDetectsPredicateOutputMismatch(t *testing.T) {
	g := graph.Example6()
	o, err := BuildOpts(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Force the recorded output qubit to disagree with the predicate by
	// unconditionally flipping it at the very end.
	o.circuit.X(o.outQ)
	broken := false
	for mask := uint64(0); mask < 64; mask++ {
		if _, _, err := o.MarkedStrict(mask); err != nil {
			broken = true
			break
		}
	}
	if !broken {
		t.Error("MarkedStrict did not detect the output mismatch")
	}
}

// Sanity: sabotage helpers really emit gates (guards against silent
// no-op refactors of the tests above).
func TestSabotageActuallyChangesCircuit(t *testing.T) {
	g := graph.Example6()
	a, _ := BuildOpts(g, 2, 4, Options{})
	b, _ := BuildOpts(g, 2, 4, Options{})
	b.circuit.X(b.outQ)
	if a.circuit.Len() == b.circuit.Len() {
		t.Fatal("sabotage emitted no gate")
	}
	var _ = qsim.KindX // keep the import honest if helpers change
}
