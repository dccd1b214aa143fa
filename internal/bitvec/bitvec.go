// Package bitvec provides dense bit vectors sized at construction time.
//
// They back two hot paths of the reproduction: the classical execution of
// reversible quantum circuits (thousands of ancilla "qubits" per oracle)
// and adjacency bitsets in the graph package.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length sequence of bits. The zero value is an empty
// vector; use New to create one with a given length.
type Vector struct {
	words []uint64
	n     int
}

// New returns a vector of n zero bits.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the number of bits in v.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Get reports the bit at index i.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets the bit at index i to b.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << uint(i%wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// Flip inverts the bit at index i.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << uint(i%wordBits)
}

// Clear zeroes every bit.
func (v *Vector) Clear() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len). Bits past Len stay zero, preserving
// the padding invariant Word/OnesCount rely on.
func (v *Vector) SetAll() {
	if v.n == 0 {
		return
	}
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	if tail := v.n % wordBits; tail != 0 {
		v.words[len(v.words)-1] = ^uint64(0) >> uint(wordBits-tail)
	}
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Word returns the i-th 64-bit word of the backing storage (bit j of the
// word is vector index 64·i+j). Bits at indices ≥ Len are always zero, so
// callers may popcount words directly.
func (v *Vector) Word(i int) uint64 {
	if i < 0 || i >= len(v.words) {
		panic(fmt.Sprintf("bitvec: word index %d out of range [0,%d)", i, len(v.words)))
	}
	return v.words[i]
}

// NumWords returns how many 64-bit words back the vector.
func (v *Vector) NumWords() int { return len(v.words) }

// AndCount returns the number of positions set in both v and o —
// popcount(v ∧ o) — without materialising the intersection. The lengths
// must match. This is the word-at-a-time kernel behind the graph package's
// popcount-based degree and common-neighbour queries.
func (v *Vector) AndCount(o *Vector) int {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: AndCount length mismatch %d != %d", v.n, o.n))
	}
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Intersects reports whether v and o share any set position — AndCount > 0
// without the full count: the scan stops at the first overlapping word. The
// lengths must match. This is the early-exit kernel behind the
// branch-and-bound saturated-member feasibility probe, where almost every
// probe against a sparse saturation vector answers "no overlap" and the
// remainder answer at the first word.
func (v *Vector) Intersects(o *Vector) bool {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: Intersects length mismatch %d != %d", v.n, o.n))
	}
	for i, w := range v.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// checkLen panics unless o has the same length as v; op names the caller
// in the message.
func (v *Vector) checkLen(o *Vector, op string) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: %s length mismatch %d != %d", op, v.n, o.n))
	}
}

// And intersects v with o in place (v ∧= o). The lengths must match.
func (v *Vector) And(o *Vector) {
	v.checkLen(o, "And")
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or unions o into v in place (v ∨= o). The lengths must match.
func (v *Vector) Or(o *Vector) {
	v.checkLen(o, "Or")
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// AndNot clears every bit of v that is set in o (v ∧= ¬o). The lengths
// must match.
func (v *Vector) AndNot(o *Vector) {
	v.checkLen(o, "AndNot")
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// AndNotCount returns popcount(v ∧ ¬o) — the number of positions set in v
// but not in o — without materialising the difference. The lengths must
// match.
func (v *Vector) AndNotCount(o *Vector) int {
	v.checkLen(o, "AndNotCount")
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w &^ o.words[i])
	}
	return c
}

// AndNotOrCount returns popcount(v ∧ ¬(a ∨ b)) — the number of positions
// set in v but in neither a nor b — in one pass over the three vectors,
// without materialising the difference. The lengths must match.
func (v *Vector) AndNotOrCount(a, b *Vector) int {
	v.checkLen(a, "AndNotOrCount")
	v.checkLen(b, "AndNotOrCount")
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w &^ (a.words[i] | b.words[i]))
	}
	return c
}

// NextSet returns the smallest set index ≥ i, or -1 when no set bit
// remains. The canonical iteration over members of a subset vector is
//
//	for v := s.NextSet(0); v >= 0; v = s.NextSet(v + 1)
//
// i may equal Len (yielding -1), so the loop needs no extra bound check.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	w := i / wordBits
	// Mask off the bits below i in the first word, then scan word-at-a-time.
	cur := v.words[w] &^ (1<<uint(i%wordBits) - 1)
	for {
		if cur != 0 {
			return w*wordBits + bits.TrailingZeros64(cur)
		}
		w++
		if w >= len(v.words) {
			return -1
		}
		cur = v.words[w]
	}
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o. The lengths must match.
func (v *Vector) CopyFrom(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: CopyFrom length mismatch %d != %d", v.n, o.n))
	}
	copy(v.words, o.words)
}

// SetUint writes the low width bits of x into v starting at offset, least
// significant bit first.
func (v *Vector) SetUint(offset, width int, x uint64) {
	for i := 0; i < width; i++ {
		v.Set(offset+i, x&(1<<uint(i)) != 0)
	}
}

// Uint reads width bits starting at offset as an unsigned integer, least
// significant bit first.
func (v *Vector) Uint(offset, width int) uint64 {
	var x uint64
	for i := 0; i < width; i++ {
		if v.Get(offset + i) {
			x |= 1 << uint(i)
		}
	}
	return x
}

// String renders the bits most-significant-looking first (index 0 leftmost),
// matching how ket labels are written in the paper (|v1 v2 ... vn>).
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
