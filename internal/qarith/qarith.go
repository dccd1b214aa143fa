// Package qarith builds the paper's reversible arithmetic circuits on top
// of qsim.Circuit: the one-qubit full adder of Fig. 7, the ripple-carry
// multi-qubit adder of Fig. 8, the bit-into-accumulator counters used for
// degree counting and size determination, and the integer comparator of
// Fig. 10 / Eq. (comp).
//
// Registers are slices of qubit indices stored least-significant-bit
// first. The builders are profligate with ancilla qubits — fresh ancillae
// per adder, exactly as the paper's complexity accounting assumes
// (O(n² log n) qubits for degree counting) — because classical bits are
// free in the simulator and uncomputation then reduces to running the
// inverse gate list.
package qarith

import (
	"fmt"

	"repro/internal/qsim"
)

// FullAdder appends the paper's Fig. 7 one-qubit adder. It consumes wires
// x, y and cin and two fresh ancillae, and returns the wires holding
// sum = x⊕y⊕cin and cout = (x∧y)⊕(cin∧(x⊕y)). After the circuit the y
// wire holds x⊕y and the first ancilla holds x∧y (both dirty, reclaimed
// later by the oracle's global uncompute).
func FullAdder(c *qsim.Circuit, x, y, cin int) (sum, cout int) {
	a1 := c.Alloc("add.xy")
	a2 := c.Alloc("add.cout")
	c.CCX(x, y, a1)   // box A: a1 = x∧y
	c.CX(x, y)        // box B: y = x⊕y
	c.CCX(y, cin, a2) // box C: a2 = cin∧(x⊕y)
	c.CX(y, cin)      // box D: cin = x⊕y⊕cin = sum
	c.CX(a1, a2)      // box E: a2 = (x∧y)⊕(cin∧(x⊕y)) = cout
	return cin, a2
}

// Add appends a ripple-carry adder (Fig. 8) computing x + y for two
// registers of equal width, returning the sum register of width len(x)+1
// (the extra top bit is the final carry). Input wires are left dirty.
func Add(c *qsim.Circuit, x, y []int) []int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("qarith: Add width mismatch %d != %d", len(x), len(y)))
	}
	sum := make([]int, 0, len(x)+1)
	carry := c.Alloc("add.c0") // |0>: no carry into the LSB
	for i := range x {
		s, cout := FullAdder(c, x[i], y[i], carry)
		sum = append(sum, s)
		carry = cout
	}
	return append(sum, carry)
}

// Accumulator is a counting register built by repeatedly adding single
// bits. Width must be large enough for the maximum possible count; AddBit
// panics (at build time) if an overflow were possible.
type Accumulator struct {
	bits []int // LSB first
	max  int   // maximum value the accumulated adds can reach
}

// NewAccumulator allocates a zeroed counting register of the given width.
func NewAccumulator(c *qsim.Circuit, label string, width int) *Accumulator {
	if width < 1 {
		panic(fmt.Sprintf("qarith: accumulator width %d < 1", width))
	}
	return &Accumulator{bits: c.AllocReg(label, width)}
}

// WidthFor returns the register width needed to hold counts up to max.
func WidthFor(max int) int {
	w := 1
	for (1 << uint(w)) <= max {
		w++
	}
	return w
}

// Bits returns the accumulator's wire indices, LSB first.
func (a *Accumulator) Bits() []int { return a.bits }

// AddBit adds the value of wire b (0 or 1) into the accumulator using a
// chain of Fig. 7 full adders — the concrete realisation of the paper's
// abstract control-a gate. The input wire is first fanned out (CNOT) onto
// a fresh ancilla: the Fig. 7 adder overwrites its y operand with x⊕y, and
// inputs like edge qubits are shared between the two endpoint vertices'
// counters, so they must not be consumed destructively.
func (a *Accumulator) AddBit(c *qsim.Circuit, b int) {
	a.max++
	if a.max >= 1<<uint(len(a.bits)) {
		panic(fmt.Sprintf("qarith: accumulator of width %d overflows after %d adds", len(a.bits), a.max))
	}
	carry := c.Alloc("acc.in")
	c.CX(b, carry)
	for i := range a.bits {
		cin := c.Alloc("acc.cin")
		// FullAdder(x=bits[i], y=carry, cin=|0>):
		// sum lands on the cin wire, carry-out on a fresh ancilla.
		sum, cout := FullAdder(c, a.bits[i], carry, cin)
		a.bits[i] = sum
		carry = cout
	}
	// carry is guaranteed |0> here by the width check above.
}

// AddBitCompact adds the value of wire b into the accumulator with a
// multi-controlled increment instead of the paper's adder chain: for each
// position j from the top down, flip acc[j] when b and all lower bits are
// set. Zero ancillas and O(w) gates per add versus the adder chain's O(w)
// gates plus 3w fresh ancillas — the design alternative benchmarked in the
// ablation suite (bench_test.go).
func (a *Accumulator) AddBitCompact(c *qsim.Circuit, b int) {
	a.max++
	if a.max >= 1<<uint(len(a.bits)) {
		panic(fmt.Sprintf("qarith: accumulator of width %d overflows after %d adds", len(a.bits), a.max))
	}
	for j := len(a.bits) - 1; j >= 1; j-- {
		ctrls := make([]qsim.Control, 0, j+1)
		ctrls = append(ctrls, qsim.On(b))
		for q := 0; q < j; q++ {
			ctrls = append(ctrls, qsim.On(a.bits[q]))
		}
		c.MCX(ctrls, a.bits[j])
	}
	c.CX(b, a.bits[0])
}

// LoadConst allocates a register holding the classical constant v (e.g.
// the |k-1> and |T> registers of Figs. 6 and 8) using X gates.
func LoadConst(c *qsim.Circuit, label string, v, width int) []int {
	reg := c.AllocReg(label, width)
	SetConst(c, reg, v)
	return reg
}

// SetConst writes the classical constant v into reg, a register known to
// hold |0>, with one X gate per set bit, lowest bit first: the gates of
// LoadConst, for a register allocated earlier.
func SetConst(c *qsim.Circuit, reg []int, v int) {
	if v < 0 || v >= 1<<uint(len(reg)) {
		panic(fmt.Sprintf("qarith: constant %d does not fit in %d bits", v, len(reg)))
	}
	for i, q := range reg {
		if v&(1<<uint(i)) != 0 {
			c.X(q)
		}
	}
}

// LessOrEqual appends the paper's Fig. 10 comparator and returns a wire
// holding x ≤ y (both registers LSB-first, equal width). Following
// Eq. (comp), the most significant bits are compared first:
//
//	x ≤ y ⇔ (x₁<y₁) ∨ (x₁=y₁)(x₂<y₂) ∨ ... ∨ (x₁=y₁)...(x_s=y_s)
//
// with per-bit primitives x_i<y_i ⇔ ¬x_i∧y_i and x_i=y_i ⇔ ¬(x_i⊕y_i)
// (Eq. 1comp). The disjuncts are mutually exclusive, so the final OR is a
// chain of CNOTs.
func LessOrEqual(c *qsim.Circuit, x, y []int) int {
	if len(x) != len(y) || len(x) == 0 {
		panic(fmt.Sprintf("qarith: comparator widths %d, %d invalid", len(x), len(y)))
	}
	s := len(x)
	// Work MSB-first: position p walks from the top bit downwards.
	lt := make([]int, s)
	eq := make([]int, s)
	for p := 0; p < s; p++ {
		xi, yi := x[s-1-p], y[s-1-p]
		lt[p] = c.Alloc("cmp.lt")
		c.MCX([]qsim.Control{qsim.Off(xi), qsim.On(yi)}, lt[p]) // box A
		eq[p] = c.Alloc("cmp.eq")
		c.CX(xi, eq[p]) // box B: eq = x_i ⊕ y_i ...
		c.CX(yi, eq[p])
		c.X(eq[p]) // ... then negated: eq = ¬(x_i⊕y_i)
	}
	// Box C: one discriminator per disjunct of Eq. (comp).
	terms := make([]int, 0, s+1)
	for p := 0; p < s; p++ {
		t := c.Alloc("cmp.term")
		ctrls := make([]qsim.Control, 0, p+1)
		for q := 0; q < p; q++ {
			ctrls = append(ctrls, qsim.On(eq[q]))
		}
		ctrls = append(ctrls, qsim.On(lt[p]))
		c.MCX(ctrls, t)
		terms = append(terms, t)
	}
	allEq := c.Alloc("cmp.alleq")
	ctrls := make([]qsim.Control, s)
	for q := 0; q < s; q++ {
		ctrls[q] = qsim.On(eq[q])
	}
	c.MCX(ctrls, allEq)
	terms = append(terms, allEq)
	// Box D: OR the mutually exclusive discriminators.
	out := c.Alloc("cmp.le")
	for _, t := range terms {
		c.CX(t, out)
	}
	return out
}

// GreaterOrEqual returns a wire holding x ≥ y (i.e. y ≤ x), the form the
// size-determination stage needs for size ≥ T.
func GreaterOrEqual(c *qsim.Circuit, x, y []int) int {
	return LessOrEqual(c, y, x)
}
