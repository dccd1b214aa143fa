package qsim

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the circuit-level half of the repo's Level-2 static
// analysis (see internal/analysis for the Go-source half): it treats a
// compiled Circuit as the program under analysis and checks the
// structural invariants the paper's constructions rely on but nothing
// in the type system enforces.

// LintIssue is one structural violation found in a circuit.
type LintIssue struct {
	Gate int // offending gate index, or -1 for a circuit-level issue
	Msg  string
}

func (i LintIssue) String() string {
	if i.Gate < 0 {
		return i.Msg
	}
	return fmt.Sprintf("gate %d: %s", i.Gate, i.Msg)
}

// LintOptions configures LintCircuit.
type LintOptions struct {
	// ReversibleBlocks lists block labels that must contain only
	// X-family gates. The oracle declares all four of its stages here:
	// U_check must stay classically reversible for the hybrid simulator's
	// phase-oracle substitution (DESIGN.md) to be exact.
	ReversibleBlocks []string
}

// LintCircuit checks the structural invariants of a compiled circuit:
//
//   - every gate's target and controls address allocated qubits;
//   - no control coincides with its target and no control is repeated
//     (a duplicated dot in a figure transcription would silently change
//     the firing condition);
//   - every gate kind is one of the known families;
//   - blocks declared reversible contain only X-family gates;
//   - the per-block accounting ledger (GateCounts) matches an
//     independent recount of the gate list, and sums to Len().
//
// It returns nil when the circuit is clean. It makes one pass over the
// gate list, tallying and classifying blocks by index and finding
// repeated controls with a stamp per qubit.
func LintCircuit(c *Circuit, opts LintOptions) []LintIssue {
	var issues []LintIssue
	n := c.NumQubits()
	recount := make([]int, len(c.blocks))
	reversible := make([]bool, len(c.blocks))
	for b, label := range c.blocks {
		reversible[b] = slices.Contains(opts.ReversibleBlocks, label)
	}
	stamp := make([]int, n) // stamp[q] == i+1: gate i has a control on q
	for i, g := range c.gates {
		recount[g.block]++
		if g.kind != KindX && g.kind != KindH && g.kind != KindZ {
			issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("unknown gate kind %v", g.kind)})
		}
		if g.target < 0 || int(g.target) >= n {
			issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("target %d outside register [0,%d)", g.target, n)})
		}
		for _, ctl := range c.controls(g) {
			if ctl.Qubit < 0 || ctl.Qubit >= n {
				issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("control %d outside register [0,%d)", ctl.Qubit, n)})
				continue
			}
			if ctl.Qubit == int(g.target) {
				issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("control overlaps target %d", g.target)})
			}
			if stamp[ctl.Qubit] == i+1 {
				issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("duplicate control on qubit %d", ctl.Qubit)})
			}
			stamp[ctl.Qubit] = i + 1
		}
		if reversible[g.block] && g.kind != KindX {
			issues = append(issues, LintIssue{Gate: i, Msg: fmt.Sprintf("non-reversible %s gate in reversible block %q", g.kind, c.blocks[g.block])})
		}
	}
	// Double-entry accounting: ledger vs recount, and recount vs total.
	// A block with no gates booked has no ledger entry. Blocks are
	// visited in sorted order so the issue list — part of the linter's
	// observable output — is identical on every run.
	order := make([]int, len(c.blocks))
	for b := range order {
		order[b] = b
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(c.blocks[a], c.blocks[b]) })
	total := 0
	for _, b := range order {
		if got := c.ledger[b]; got != 0 {
			total += got
			if want := recount[b]; got != want {
				issues = append(issues, LintIssue{Gate: -1, Msg: fmt.Sprintf("block %q ledger records %d gates, gate list has %d", c.blocks[b], got, want)})
			}
		}
	}
	for _, b := range order {
		if recount[b] != 0 && c.ledger[b] == 0 {
			issues = append(issues, LintIssue{Gate: -1, Msg: fmt.Sprintf("block %q has %d gates but no ledger entry", c.blocks[b], recount[b])})
		}
	}
	if total != c.Len() {
		issues = append(issues, LintIssue{Gate: -1, Msg: fmt.Sprintf("ledger total %d != circuit length %d", total, c.Len())})
	}
	return issues
}
