package qsim

import (
	"strings"
	"testing"
)

// buildClean assembles a well-formed two-block circuit through the public
// API.
func buildClean() *Circuit {
	c := NewCircuit()
	q := c.AllocReg("q", 3)
	c.SetBlock("compute")
	c.H(q[0])
	c.CCX(q[0], q[1], q[2])
	c.SetBlock("flip")
	c.MCX([]Control{On(q[0]), Off(q[1])}, q[2])
	return c
}

func TestLintCleanCircuit(t *testing.T) {
	c := buildClean()
	if issues := LintCircuit(c, LintOptions{}); len(issues) != 0 {
		t.Fatalf("clean circuit flagged: %v", issues)
	}
	// The flip block is X-only, so declaring it reversible is also clean.
	if issues := LintCircuit(c, LintOptions{ReversibleBlocks: []string{"flip"}}); len(issues) != 0 {
		t.Fatalf("reversible flip block flagged: %v", issues)
	}
}

func TestLintAppendInverseKeepsBooks(t *testing.T) {
	c := NewCircuit()
	q := c.AllocReg("q", 2)
	c.SetBlock("fwd")
	c.CX(q[0], q[1])
	c.X(q[0])
	c.AppendInverse(0, 2)
	if issues := LintCircuit(c, LintOptions{ReversibleBlocks: []string{"fwd"}}); len(issues) != 0 {
		t.Fatalf("inverse-appended circuit flagged: %v", issues)
	}
	if got := c.GateCounts()["fwd"]; got != 4 {
		t.Fatalf("ledger counts %d gates in fwd, want 4", got)
	}
}

// corrupt applies a mutation the public API refuses to make, then asserts
// LintCircuit reports it with the expected message fragment.
func assertLint(t *testing.T, c *Circuit, opts LintOptions, wantFragment string) {
	t.Helper()
	issues := LintCircuit(c, opts)
	for _, iss := range issues {
		if strings.Contains(iss.String(), wantFragment) {
			return
		}
	}
	t.Fatalf("lint missed %q; got %v", wantFragment, issues)
}

func TestLintTargetOutOfRange(t *testing.T) {
	c := buildClean()
	c.gates[1].target = 99
	assertLint(t, c, LintOptions{}, "target 99 outside register")
}

func TestLintControlOutOfRange(t *testing.T) {
	c := buildClean()
	c.ctrls[c.gates[1].ctrl].Qubit = -1
	assertLint(t, c, LintOptions{}, "control -1 outside register")
}

func TestLintControlOverlapsTarget(t *testing.T) {
	c := buildClean()
	c.ctrls[c.gates[2].ctrl+1].Qubit = int(c.gates[2].target)
	assertLint(t, c, LintOptions{}, "control overlaps target")
}

func TestLintDuplicateControl(t *testing.T) {
	c := buildClean()
	c.ctrls[c.gates[2].ctrl+1].Qubit = c.ctrls[c.gates[2].ctrl].Qubit
	assertLint(t, c, LintOptions{}, "duplicate control")
}

func TestLintUnknownKind(t *testing.T) {
	c := buildClean()
	c.gates[0].kind = Kind(7)
	assertLint(t, c, LintOptions{}, "unknown gate kind")
}

func TestLintNonReversibleBlock(t *testing.T) {
	c := buildClean()
	// The compute block holds an H gate; declaring it reversible must fail.
	assertLint(t, c, LintOptions{ReversibleBlocks: []string{"compute"}},
		`non-reversible H gate in reversible block "compute"`)
}

func TestLintLedgerDrift(t *testing.T) {
	c := buildClean()
	// A rogue code path appends a gate without keeping the books.
	c.gates = append(c.gates, gate{kind: KindX, target: 0, block: uint16(c.blockIndex("flip"))})
	assertLint(t, c, LintOptions{}, "ledger records 1 gates, gate list has 2")

	// And one that cooks the ledger without touching the gate list.
	c2 := buildClean()
	c2.ledger[c2.blockIndex("phantom")] = 3
	assertLint(t, c2, LintOptions{}, "ledger total")
}
