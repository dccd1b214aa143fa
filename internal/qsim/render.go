package qsim

import (
	"fmt"
	"io"
	"strings"
)

// Render writes a textual circuit diagram in the spirit of the paper's
// figures: one row per qubit, time flowing left to right. Control dots
// print as ● (positive) and ○ (negative, the paper's hollow circle);
// targets print as ⊕ (X), H, or Z. Intended for debugging and docs —
// oracles run to thousands of gates, so maxGates caps the width
// (0 means everything).
func (c *Circuit) Render(w io.Writer, maxGates int) error {
	gates := c.Gates()
	truncated := false
	if maxGates > 0 && len(gates) > maxGates {
		gates = gates[:maxGates]
		truncated = true
	}
	nq := c.NumQubits()
	labelWidth := 0
	for q := 0; q < nq; q++ {
		if l := len([]rune(c.labels[q])); l > labelWidth {
			labelWidth = l
		}
	}
	rows := make([][]string, nq)
	for q := range rows {
		rows[q] = make([]string, len(gates))
	}
	for gi, g := range gates {
		marks := map[int]string{}
		switch g.Kind {
		case KindX:
			marks[g.Target] = "⊕"
		case KindH:
			marks[g.Target] = "H"
		case KindZ:
			marks[g.Target] = "Z"
		}
		lo, hi := g.Target, g.Target
		for _, ctl := range g.Controls {
			if ctl.Positive {
				marks[ctl.Qubit] = "●"
			} else {
				marks[ctl.Qubit] = "○"
			}
			if ctl.Qubit < lo {
				lo = ctl.Qubit
			}
			if ctl.Qubit > hi {
				hi = ctl.Qubit
			}
		}
		for q := 0; q < nq; q++ {
			switch {
			case marks[q] != "":
				rows[q][gi] = marks[q]
			case q > lo && q < hi:
				rows[q][gi] = "│" // vertical connector through the gate
			default:
				rows[q][gi] = "─"
			}
		}
	}
	for q := 0; q < nq; q++ {
		label := c.labels[q]
		pad := strings.Repeat(" ", labelWidth-len([]rune(label)))
		line := fmt.Sprintf("|%s>%s ─%s─", label, pad, strings.Join(rows[q], "─"))
		if truncated && q == 0 {
			line += fmt.Sprintf(" … (+%d more gates)", len(c.gates)-maxGates)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// String renders the full circuit (use Render with maxGates for large
// circuits).
func (c *Circuit) String() string {
	var b strings.Builder
	_ = c.Render(&b, 0)
	return b.String()
}
