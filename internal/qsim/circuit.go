// Package qsim is the gate-model quantum substrate of the reproduction.
//
// It provides three pieces:
//
//   - Circuit: a gate list over an open-ended qubit register, with the gate
//     vocabulary of the paper (X, H, Z, and multi-controlled X/Z with
//     positive or negative controls — the filled and hollow dots of the
//     paper's figures), per-block gate accounting, and exact inversion
//     (U†, used for the oracle's uncompute stage).
//   - RevState / Circuit.RunReversible: classical execution of the
//     reversible (X-family only) subset on a bit vector. Because the
//     paper's entire U_check oracle is built from X-family gates, running
//     it per basis state is exactly equivalent to full statevector
//     simulation of those gates (see DESIGN.md, substitution table).
//   - Statevector: a dense 2^n complex simulator for the full vocabulary,
//     used to validate the hybrid approach gate-for-gate on small systems
//     and to run quantum counting.
//
// Qubit ordering follows the paper's kets: qubit 0 is |v1|, the most
// significant bit of a basis label, so the state |100100> on six qubits is
// basis index 36 exactly as printed in the paper.
package qsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bitvec"
)

// Kind enumerates gate families.
type Kind uint8

const (
	// KindX is the NOT gate, possibly multi-controlled (CNOT, Toffoli,
	// C^kNOT with arbitrary control polarities).
	KindX Kind = iota
	// KindH is the Hadamard gate (no controls).
	KindH
	// KindZ is the phase-flip gate, possibly multi-controlled.
	KindZ
)

func (k Kind) String() string {
	switch k {
	case KindX:
		return "X"
	case KindH:
		return "H"
	case KindZ:
		return "Z"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Control is one control dot of a controlled gate. Positive controls
// (filled dots in the paper's figures) trigger on |1>, negative controls
// (hollow dots, Fig. 4 left) trigger on |0>.
type Control struct {
	Qubit    int
	Positive bool
}

// On returns a positive control on qubit q.
func On(q int) Control { return Control{Qubit: q, Positive: true} }

// Off returns a negative (hollow-dot) control on qubit q.
func Off(q int) Control { return Control{Qubit: q, Positive: false} }

// Gate is one gate application, as Circuit.Gates reports it.
type Gate struct {
	Kind     Kind
	Target   int
	Controls []Control
	Block    string // accounting label of the circuit block that emitted it
}

// gate is a Gate as a circuit stores it. It holds no pointers, so a gate
// list grows, copies and sits in the heap as plain memory the garbage
// collector never scans: the controls live back to back in the circuit's
// control store, and the block label in its block table.
type gate struct {
	kind   Kind
	block  uint16 // index into Circuit.blocks
	target int32
	ctrl   int32 // the controls are Circuit.ctrls[ctrl : ctrl+nctrl]
	nctrl  int32
}

// Circuit is a straight-line quantum circuit with a qubit allocator.
// The zero value is an empty circuit ready for use.
type Circuit struct {
	gates  []gate
	ctrls  []Control // every gate's controls, back to back
	labels []string  // one per qubit
	blocks []string  // block labels, indexed by gate.block
	block  string    // label of the gates emitted next
	cur    int       // 1 + index of block in blocks, or 0 until resolved

	// ledger is the running per-block accounting, by block index (see
	// GateCounts). The books are kept separately from the gate list on
	// purpose: LintCircuit recounts the list and cross-checks it against
	// this ledger, so any code path that appends gates without
	// accounting (or vice versa) is caught mechanically.
	ledger []int

	// base is the gate list of the circuit this one was derived from,
	// as it stood then (see Derive).
	base []gate
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return &Circuit{} }

// NumQubits returns the number of allocated qubits.
func (c *Circuit) NumQubits() int { return len(c.labels) }

// Gates returns the gate list as Gate values, built afresh on each call.
// The Controls slices are views of the circuit's control store: callers
// must not modify them.
func (c *Circuit) Gates() []Gate {
	out := make([]Gate, len(c.gates))
	for i, g := range c.gates {
		out[i] = Gate{Kind: g.kind, Target: int(g.target), Controls: c.controls(g), Block: c.blocks[g.block]}
	}
	return out
}

// controls returns g's control list, a view of the control store.
func (c *Circuit) controls(g gate) []Control {
	if g.nctrl == 0 {
		return nil
	}
	end := g.ctrl + g.nctrl
	return c.ctrls[g.ctrl:end:end]
}

// Alloc reserves one fresh qubit, initially |0>, and returns its index.
// The label is for debugging and circuit dumps.
func (c *Circuit) Alloc(label string) int {
	c.labels = append(grow(c.labels, 1), label)
	return len(c.labels) - 1
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate: append grows a large slice by a
// quarter at a time, which would copy a gate list of thousands of gates
// many times over while it is built.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// AllocReg reserves width fresh qubits labelled label[0..width).
func (c *Circuit) AllocReg(label string, width int) []int {
	reg := make([]int, width)
	for i := range reg {
		reg[i] = c.Alloc(fmt.Sprintf("%s[%d]", label, i))
	}
	return reg
}

// Label returns the allocation label of qubit q.
func (c *Circuit) Label(q int) string { return c.labels[q] }

// SetBlock labels subsequently emitted gates for per-component accounting
// (the oracle's degree-count / degree-comparison / size-determination
// split of the paper's Table IV). It returns the previous block label.
func (c *Circuit) SetBlock(name string) string {
	prev := c.block
	c.block, c.cur = name, 0
	return prev
}

// blockIndex returns the index of label in the block table, adding it
// (with an empty ledger entry) if it is new.
func (c *Circuit) blockIndex(label string) int {
	for i, b := range c.blocks {
		if b == label {
			return i
		}
	}
	if len(c.blocks) > math.MaxUint16 {
		panic(fmt.Sprintf("qsim: more than %d block labels", math.MaxUint16+1))
	}
	c.blocks = append(c.blocks, label)
	c.ledger = append(c.ledger, 0)
	return len(c.blocks) - 1
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= len(c.labels) {
		panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, len(c.labels)))
	}
}

func (c *Circuit) emit(kind Kind, target int, controls []Control) {
	c.checkQubit(target)
	for _, ctl := range controls {
		c.checkQubit(ctl.Qubit)
		if ctl.Qubit == target {
			panic(fmt.Sprintf("qsim: control and target coincide at qubit %d", target))
		}
	}
	if c.cur == 0 {
		c.cur = 1 + c.blockIndex(c.block)
	}
	c.gates = append(grow(c.gates, 1), gate{kind: kind, block: uint16(c.cur - 1), target: int32(target),
		ctrl: int32(len(c.ctrls)), nctrl: int32(len(controls))})
	c.ctrls = append(grow(c.ctrls, len(controls)), controls...)
	c.ledger[c.cur-1]++
}

// book records gates [from, to) of the gate list in the ledger.
func (c *Circuit) book(from, to int) {
	for _, g := range c.gates[from:to] {
		c.ledger[g.block]++
	}
}

// X appends a NOT gate on qubit t.
func (c *Circuit) X(t int) { c.emit(KindX, t, nil) }

// CX appends a CNOT with positive control ctl and target t.
func (c *Circuit) CX(ctl, t int) { c.emit(KindX, t, []Control{On(ctl)}) }

// CCX appends a Toffoli (C²NOT) gate.
func (c *Circuit) CCX(c1, c2, t int) { c.emit(KindX, t, []Control{On(c1), On(c2)}) }

// MCX appends a multi-controlled NOT with arbitrary control polarities.
// The gate keeps its own copy of controls.
func (c *Circuit) MCX(controls []Control, t int) { c.emit(KindX, t, controls) }

// H appends a Hadamard gate on qubit t.
func (c *Circuit) H(t int) { c.emit(KindH, t, nil) }

// Z appends a phase-flip gate on qubit t.
func (c *Circuit) Z(t int) { c.emit(KindZ, t, nil) }

// MCZ appends a multi-controlled Z with target t. The gate keeps its own
// copy of controls.
func (c *Circuit) MCZ(controls []Control, t int) { c.emit(KindZ, t, controls) }

// AppendInverse appends U† for the gate range [from, to) of this circuit:
// the same gates in reverse order (every gate in our vocabulary is its own
// inverse). The paper uses this to reset all auxiliary qubits after the
// oracle flip ("U† employs the same gates as U, but in reverse sequence").
// Appended gates keep their original block labels so accounting stays
// attributed to the component being uncomputed. The gate list grows at
// most once, by the mirror's length.
func (c *Circuit) AppendInverse(from, to int) {
	if from < 0 || to > len(c.gates) || from > to {
		panic(fmt.Sprintf("qsim: AppendInverse range [%d,%d) out of [0,%d]", from, to, len(c.gates)))
	}
	start := len(c.gates)
	c.gates = slices.Grow(c.gates, to-from)
	for i := to - 1; i >= from; i-- {
		c.gates = append(c.gates, c.gates[i])
	}
	c.book(start, len(c.gates))
}

// Derive returns an empty circuit on c's qubit register, with room for
// gates gates, to which AppendBase copies gates of c as c stands now. The
// new circuit shares c's qubit labels, block labels and control lists
// read-only: whatever it adds goes into its own copies. The oracle uses
// this to finish one circuit per size threshold from stages compiled
// once.
func (c *Circuit) Derive(gates int) *Circuit {
	return &Circuit{
		gates:  make([]gate, 0, gates),
		ctrls:  c.ctrls[:len(c.ctrls):len(c.ctrls)],
		labels: c.labels[:len(c.labels):len(c.labels)],
		blocks: c.blocks[:len(c.blocks):len(c.blocks)],
		ledger: make([]int, len(c.blocks)),
		base:   c.gates[:len(c.gates):len(c.gates)],
	}
}

// AppendBase appends gates [from, to) of the circuit c was derived from,
// as that circuit stood at Derive, and books them under their block
// labels.
func (c *Circuit) AppendBase(from, to int) {
	if from < 0 || to > len(c.base) || from > to {
		panic(fmt.Sprintf("qsim: AppendBase range [%d,%d) out of [0,%d]", from, to, len(c.base)))
	}
	start := len(c.gates)
	c.gates = append(c.gates, c.base[from:to]...)
	c.book(start, len(c.gates))
}

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.gates) }

// GateCounts returns the number of gates per block label, from the
// running ledger maintained at emission time (LintCircuit verifies the
// ledger against a recount of the gate list).
func (c *Circuit) GateCounts() map[string]int {
	counts := make(map[string]int, len(c.ledger))
	for b, n := range c.ledger {
		if n > 0 {
			counts[c.blocks[b]] = n
		}
	}
	return counts
}

// IsReversible reports whether every gate belongs to the classical
// reversible subset (X family), i.e. the circuit is a permutation of basis
// states and can be executed by RunReversible.
func (c *Circuit) IsReversible() bool {
	for _, g := range c.gates {
		if g.kind != KindX {
			return false
		}
	}
	return true
}

// RunReversible executes the circuit classically on the given bit state,
// which must have at least NumQubits bits. It returns the number of gates
// executed per block. Panics if the circuit contains non-X gates.
func (c *Circuit) RunReversible(state *bitvec.Vector) map[string]int {
	counts := make(map[string]int)
	c.RunReversibleRange(state, 0, len(c.gates), counts)
	return counts
}

// RunReversibleRange executes gates [from,to) on state, accumulating gate
// counts per block into counts (which may be nil to skip accounting).
func (c *Circuit) RunReversibleRange(state *bitvec.Vector, from, to int, counts map[string]int) {
	if state.Len() < len(c.labels) {
		panic(fmt.Sprintf("qsim: state has %d bits, circuit needs %d", state.Len(), len(c.labels)))
	}
	for i := from; i < to; i++ {
		g := c.gates[i]
		if g.kind != KindX {
			panic(fmt.Sprintf("qsim: gate %d (%s) is not classically reversible", i, g.kind))
		}
		fire := true
		for _, ctl := range c.controls(g) {
			if state.Get(ctl.Qubit) != ctl.Positive {
				fire = false
				break
			}
		}
		if fire {
			state.Flip(int(g.target))
		}
		if counts != nil {
			counts[c.blocks[g.block]]++
		}
	}
}
