// Package oracle assembles the paper's Grover oracle for "is this subset a
// k-cplex of the complement graph with size ≥ T" from the four circuit
// stages of Section III:
//
//   - Challenge I — graph encoding (Fig. 5 box A): one qubit per
//     complement edge, activated by a C²NOT when both endpoints are in
//     the subset.
//   - Challenge II — degree counting (Fig. 5 box B): per-vertex
//     accumulators summing incident edge qubits with Fig. 7 adders.
//   - Challenge III — degree comparison (Fig. 6): per-vertex comparator
//     c_i ≤ k-1 (the k-cplex condition), then an n-controlled NOT into
//     the cplex flag. (The paper's prose says "<"; Definition 4 and
//     Eq. (comp) require "≤", which is what we build.)
//   - Challenge IV — size determination (Fig. 8): count vertex qubits,
//     compare with |T>, and conjoin with the cplex flag into the oracle
//     output.
//
// Only stage IV reads T, and only as the constant loaded into its |T>
// register, so CompileStages compiles everything else once per (graph,
// k) and Stages.Build finishes one linted oracle per threshold: qMKP's
// binary search compiles once per request. BuildOpts is the two in a
// row.
//
// The assembled circuit is purely X-family (reversible), so the package
// also provides the exact classical evaluation used by the hybrid Grover
// simulator, including a strict mode that executes U_check, reads the
// output, executes U_check†, and verifies every ancilla returned to |0> —
// the paper's auxiliary-qubit reset contract.
package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/fastoracle"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qarith"
	"repro/internal/qsim"
)

// Block labels for per-component gate accounting (Table IV).
const (
	BlockEncoding      = "graph-encoding"
	BlockDegreeCount   = "degree-count"
	BlockDegreeCompare = "degree-compare"
	BlockSizeCheck     = "size-determination"
)

// Oracle is a compiled k-plex oracle for a fixed graph, k and T.
type Oracle struct {
	N int // number of vertices
	K int
	T int

	circuit *qsim.Circuit
	vertex  []int // vertex qubit indices (0..n-1)
	cplexQ  int   // wire: subset is a k-cplex of the complement
	sizeQ   int   // wire: |subset| ≥ T
	outQ    int   // wire: cplexQ ∧ sizeQ (the bit that drives the |O> flip)
	fwdEnd  int   // gate index ending U_check (inverse follows)

	// fast is the semantic fast path (popcounts over packed
	// complement-adjacency words, see internal/fastoracle); non-nil only
	// when Options.FastPath requested it. The compiled circuit above is
	// retained either way — it stays the gate-count/qubit-count ground
	// truth, and the differential tests pin the two paths to each other.
	fast *fastoracle.Evaluator

	// metrics receives the per-sweep evaluation counters (Options.Metrics).
	metrics *obs.Metrics

	scratch *bitvec.Vector
}

// Options selects oracle construction variants.
type Options struct {
	// CompactCounting replaces the paper's adder-chain degree counters
	// (Fig. 7 full adders, fresh ancillas per addition) with ancilla-free
	// multi-controlled increments — the ablation of DESIGN.md §5.
	CompactCounting bool

	// Strict makes BuildOpts verify the auxiliary-qubit reset contract
	// on the corner and single-vertex states plus strictSampleBudget
	// sampled basis states before returning: U_check, oracle flip and U_check† are executed
	// end to end and every ancilla must come back to |0> with the vertex
	// register intact (the paper's "U† employs the same gates as U"
	// reset requirement). Costs a few dozen full oracle evaluations at
	// build time.
	Strict bool

	// Metrics, when non-nil, receives bulk evaluation counters from
	// every TruthTable sweep ("oracle.evals.fast" vs
	// "oracle.evals.circuit", plus a sweep count). Counts are added
	// once per sweep on the calling goroutine, so the registry dump
	// stays bit-identical at any worker count.
	Metrics *obs.Metrics

	// FastPath makes Marked and TruthTable answer the oracle predicate
	// semantically — popcount(adjComp[v] & mask) ≤ k-1 per member plus
	// popcount(mask) ≥ T over packed complement-adjacency words
	// (internal/fastoracle) — instead of replaying the compiled circuit:
	// O(|mask|) word operations per evaluation instead of O(gates). The
	// circuit is still compiled, linted and available (MarkedCircuit,
	// MarkedStrict, gate accounting); requires n ≤ 64.
	FastPath bool
}

// strictSampleBudget is the number of basis states strict mode exercises
// beyond the always-checked corners.
const strictSampleBudget = 24

// lintOpts is the structural lint every compiled oracle passes: every
// stage of U_check must stay X-family (classically reversible) for the
// hybrid simulation to be exact, and the per-block accounting the
// complexity tables are built from must balance.
var lintOpts = qsim.LintOptions{ReversibleBlocks: []string{
	BlockEncoding, BlockDegreeCount, BlockDegreeCompare, BlockSizeCheck,
}}

// checkGraph and checkT are BuildOpts's range rules: a non-empty graph,
// 1 ≤ k ≤ n and 1 ≤ T ≤ n.
func checkGraph(n, k int) error {
	if n < 1 {
		return fmt.Errorf("oracle: empty graph")
	}
	if k < 1 || k > n {
		return fmt.Errorf("oracle: k=%d out of range [1,%d]", k, n)
	}
	return nil
}

func checkT(n, T int) error {
	if T < 1 || T > n {
		return fmt.Errorf("oracle: T=%d out of range [1,%d]", T, n)
	}
	return nil
}

// BuildOpts compiles the oracle for graph g (the original graph; the
// complement is formed internally, following the paper's reduction of
// k-plex to k-cplex) with the construction variants of opts. T is the
// size threshold. It is CompileStages followed by one Stages.Build; a
// caller that asks several thresholds of one graph, as qMKP's binary
// search does, compiles once and builds per threshold instead.
func BuildOpts(g *graph.Graph, k, T int, opts Options) (*Oracle, error) {
	if err := checkGraph(g.N(), k); err != nil {
		return nil, err
	}
	if err := checkT(g.N(), T); err != nil {
		return nil, err
	}
	s, err := CompileStages(g, k, opts)
	if err != nil {
		return nil, err
	}
	return s.Build(T)
}

// Stages is the part of the oracle that does not depend on the size
// threshold T, compiled once per (graph, k, options): stages I–III, and
// stage IV's size counter and comparator against a |T> register that is
// allocated but not yet loaded. Stage IV's register widths are those of
// n, which every T ≤ n fits, so only the X gates loading T differ from
// one threshold to the next. Build reads a Stages and never modifies it,
// so it is safe for concurrent use and every oracle it returned stays
// valid.
type Stages struct {
	n, k int
	opts Options

	// fwd is U_check and the flip with |T> unloaded; T's load goes
	// in at gate loadAt, between the size counter and the comparator.
	fwd    *qsim.Circuit
	loadAt int
	tReg   []int

	vertex              []int
	cplexQ, sizeQ, outQ int
	fast                *fastoracle.Evaluator
}

// CompileStages compiles the threshold-independent stages of the oracle
// for graph g and k (see BuildOpts and Stages).
func CompileStages(g *graph.Graph, k int, opts Options) (*Stages, error) {
	n := g.N()
	if err := checkGraph(n, k); err != nil {
		return nil, err
	}
	if opts.FastPath && n > 64 {
		// The fast path answers one-word subset masks, so fastoracle.New
		// refuses wider graphs. Refuse up front, before the circuit is
		// compiled.
		return nil, fmt.Errorf("oracle: fast path unavailable: one-word masks need n ≤ 64, got n=%d", n)
	}
	comp := g.Complement()
	c := qsim.NewCircuit()
	s := &Stages{n: n, k: k, opts: opts}

	// Vertex register |v1..vn>.
	s.vertex = c.AllocReg("v", n)

	// Challenge I: encode the complement topology. Edge qubit e_{uv}
	// fires iff both endpoints are selected; edgeQ[u*n+v] is its index.
	c.SetBlock(BlockEncoding)
	edgeQ := make([]int, n*n)
	for _, e := range comp.Edges() {
		q := c.Alloc(fmt.Sprintf("e[%d,%d]", e[0]+1, e[1]+1))
		c.CCX(s.vertex[e[0]], s.vertex[e[1]], q)
		edgeQ[e[0]*n+e[1]], edgeQ[e[1]*n+e[0]] = q, q
	}

	// Challenge II: degree counting. Each vertex gets an accumulator
	// wide enough for both its complement degree and the constant k-1.
	c.SetBlock(BlockDegreeCount)
	degReg := make([][]int, n)
	widths := make([]int, n)
	for v := 0; v < n; v++ {
		maxVal := comp.Degree(v)
		if k-1 > maxVal {
			maxVal = k - 1
		}
		widths[v] = qarith.WidthFor(maxVal)
		acc := qarith.NewAccumulator(c, fmt.Sprintf("c%d", v+1), widths[v])
		for _, u := range comp.Neighbors(v) {
			if opts.CompactCounting {
				acc.AddBitCompact(c, edgeQ[v*n+u])
			} else {
				acc.AddBit(c, edgeQ[v*n+u])
			}
		}
		degReg[v] = acc.Bits()
	}

	// Challenge III: degree comparison c_i ≤ k-1, then the cplex flag.
	c.SetBlock(BlockDegreeCompare)
	leQ := make([]int, n)
	for v := 0; v < n; v++ {
		kReg := qarith.LoadConst(c, fmt.Sprintf("k%d", v+1), k-1, widths[v])
		leQ[v] = qarith.LessOrEqual(c, degReg[v], kReg)
	}
	s.cplexQ = c.Alloc("cplex")
	ctrls := make([]qsim.Control, n)
	for v := 0; v < n; v++ {
		ctrls[v] = qsim.On(leQ[v])
	}
	c.MCX(ctrls, s.cplexQ)

	// Challenge IV: size determination and threshold comparison, with
	// |T> left for Build to load. Every T ≤ n fits in n's width.
	c.SetBlock(BlockSizeCheck)
	sizeWidth := qarith.WidthFor(n)
	sizeAcc := qarith.NewAccumulator(c, "size", sizeWidth)
	for _, vq := range s.vertex {
		if opts.CompactCounting {
			sizeAcc.AddBitCompact(c, vq)
		} else {
			sizeAcc.AddBit(c, vq)
		}
	}
	s.loadAt = c.Len()
	s.tReg = c.AllocReg("T", sizeWidth)
	s.sizeQ = qarith.GreaterOrEqual(c, sizeAcc.Bits(), s.tReg)
	s.outQ = c.Alloc("oracle")
	c.CCX(s.cplexQ, s.sizeQ, s.outQ)
	s.fwd = c

	if opts.FastPath {
		fast, err := fastoracle.New(g, k)
		if err != nil {
			return nil, fmt.Errorf("oracle: fast path unavailable: %w", err)
		}
		s.fast = fast
	}
	return s, nil
}

// Build finishes the oracle for threshold T: it copies the compiled
// stages into a new circuit, loads |T>, appends U_check† and lints the
// whole circuit; under Options.Strict it then verifies the reset
// contract. The circuit is allocated at its final length up front.
func (s *Stages) Build(T int) (*Oracle, error) {
	if err := checkT(s.n, T); err != nil {
		return nil, err
	}
	// Room for U_check with the longest load of |T>, the flip, and the
	// mirror of U_check.
	c := s.fwd.Derive(2*(s.fwd.Len()+len(s.tReg)) - 1)
	c.AppendBase(0, s.loadAt)
	c.SetBlock(BlockSizeCheck)
	qarith.SetConst(c, s.tReg, T)
	c.AppendBase(s.loadAt, s.fwd.Len())
	o := &Oracle{N: s.n, K: s.k, T: T, circuit: c, vertex: s.vertex,
		cplexQ: s.cplexQ, sizeQ: s.sizeQ, outQ: s.outQ, fast: s.fast, metrics: s.opts.Metrics}

	// U_check† — reset every auxiliary qubit (the paper's Fig. 8 "repeat"
	// structure relies on this). The final CCX into outQ is excluded:
	// in the physical circuit that flip targets the |O>=|-> qubit and is
	// what transfers the phase.
	o.fwdEnd = c.Len() - 1
	c.AppendInverse(0, o.fwdEnd)

	o.scratch = bitvec.New(c.NumQubits())

	// The lint is one pass over the gate list, so it guards every
	// construction, not just tests.
	if issues := qsim.LintCircuit(c, lintOpts); len(issues) > 0 {
		return nil, fmt.Errorf("oracle: compiled circuit fails lint: %v", issues[0])
	}
	if s.opts.Strict {
		if err := o.VerifyResetContract(strictSampleBudget); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// VerifyResetContract executes the full oracle (U_check, flip, U_check†)
// on a deterministic sample of basis states — the all-zeros and all-ones
// corners, every single-vertex state, and up to extra further
// pseudorandom masks — and verifies the paper's reset contract on each:
// ancillae back to |0>, vertex register unchanged, output qubit agreeing
// with the forward-execution predicate and, when Options.FastPath is
// enabled, with the semantic fast path.
func (o *Oracle) VerifyResetContract(extra int) error {
	all := uint64(1)<<uint(o.N) - 1
	masks := []uint64{0, all}
	for i := 0; i < o.N; i++ {
		masks = append(masks, uint64(1)<<uint(i))
	}
	rng := rand.New(rand.NewSource(1)) // deterministic: same sample every build
	for i := 0; i < extra; i++ {
		masks = append(masks, rng.Uint64()&all)
	}
	// Each mask is two full oracle executions; fan out with one scratch
	// register per worker (MarkedStrict allocates its own state). Errors
	// land in per-mask slots and the first one in mask order is returned,
	// so the reported violation is the same at any worker count.
	errs := make([]error, len(masks))
	parallel.ForScratch(len(masks), 4,
		func() *bitvec.Vector { return bitvec.New(o.circuit.NumQubits()) },
		func(st *bitvec.Vector, lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				mask := masks[idx]
				strict, _, err := o.MarkedStrict(mask)
				if err != nil {
					errs[idx] = fmt.Errorf("oracle: reset contract violated on |%0*b>: %w", o.N, mask, err)
					continue
				}
				if fwd := o.markedInto(st, mask); fwd != strict {
					errs[idx] = fmt.Errorf("oracle: forward circuit path disagrees with strict path on |%0*b>: %v vs %v", o.N, mask, fwd, strict)
					continue
				}
				if o.fast != nil && o.fast.Marked(mask, o.T) != strict {
					errs[idx] = fmt.Errorf("oracle: semantic fast path disagrees with strict path on |%0*b>", o.N, mask)
				}
			}
		})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Circuit exposes the compiled circuit (U_check, oracle flip, U_check†).
func (o *Oracle) Circuit() *qsim.Circuit { return o.circuit }

// VertexQubits returns the indices of the vertex register.
func (o *Oracle) VertexQubits() []int { return o.vertex }

// setVertexMask writes the subset mask (paper convention: bit n-1-i is
// vertex i) into the scratch state's vertex qubits.
func (o *Oracle) setVertexMask(st *bitvec.Vector, mask uint64) {
	for i := 0; i < o.N; i++ {
		st.Set(o.vertex[i], mask&(1<<uint(o.N-1-i)) != 0)
	}
}

// Marked evaluates the oracle predicate for one subset mask. With the
// semantic fast path enabled (Options.FastPath) this is a handful of
// popcounts and safe for concurrent use; otherwise it replays U_check
// forward on the oracle's shared scratch register and is NOT safe for
// concurrent use — TruthTable is the concurrent bulk entry point.
func (o *Oracle) Marked(mask uint64) bool {
	if o.fast != nil {
		return o.fast.Marked(mask, o.T)
	}
	return o.markedInto(o.scratch, mask)
}

// MarkedCircuit evaluates the predicate by classical circuit replay
// (U_check forward only) regardless of the fast-path setting — the
// reference the differential tests and speedup benchmarks compare the
// semantic path against. Not safe for concurrent use (shared scratch).
func (o *Oracle) MarkedCircuit(mask uint64) bool {
	return o.markedInto(o.scratch, mask)
}

// markedInto is the circuit evaluation on a caller-supplied register (any
// prior contents are cleared), the worker-scratch form used by the
// parallel sweeps.
func (o *Oracle) markedInto(st *bitvec.Vector, mask uint64) bool {
	st.Clear()
	o.setVertexMask(st, mask)
	o.circuit.RunReversibleRange(st, 0, o.fwdEnd, nil)
	return st.Get(o.cplexQ) && st.Get(o.sizeQ)
}

// MarkedStrict runs the full gate sequence — U_check, oracle flip,
// U_check† — and verifies the reset contract: every non-vertex qubit back
// to |0>, vertex register unchanged. It returns the oracle bit observed
// between the halves and the per-block executed gate counts.
func (o *Oracle) MarkedStrict(mask uint64) (bool, map[string]int, error) {
	st := bitvec.New(o.circuit.NumQubits())
	o.setVertexMask(st, mask)
	counts := make(map[string]int)
	o.circuit.RunReversibleRange(st, 0, o.fwdEnd, counts)
	marked := st.Get(o.cplexQ) && st.Get(o.sizeQ)
	// Gate o.fwdEnd is the CCX onto outQ (the |O> flip); execute it too.
	o.circuit.RunReversibleRange(st, o.fwdEnd, o.circuit.Len(), counts)
	if st.Get(o.outQ) != marked {
		return marked, counts, fmt.Errorf("oracle: output qubit %v disagrees with predicate %v", st.Get(o.outQ), marked)
	}
	// Undo the recorded flip so the reset check below sees the ancilla
	// contract the physical circuit has (where the flip lands on |O>,
	// not on an ancilla).
	st.Set(o.outQ, false)
	for q := 0; q < o.circuit.NumQubits(); q++ {
		isVertex := q < o.N
		if isVertex {
			wantSet := mask&(1<<uint(o.N-1-q)) != 0
			if st.Get(q) != wantSet {
				return marked, counts, fmt.Errorf("oracle: vertex qubit %d corrupted by uncompute", q)
			}
			continue
		}
		if st.Get(q) {
			return marked, counts, fmt.Errorf("oracle: ancilla %d (%s) not reset to |0>", q, o.circuit.Label(q))
		}
	}
	return marked, counts, nil
}

// truthTableGrain is the per-chunk mask count of the parallel sweep. One
// mask executes thousands of gates, so chunks stay small to keep every
// worker busy even on the 2^10-mask paper instances.
const truthTableGrain = 8

// fastTableGrain chunks the semantic sweep: one evaluation is a few
// popcounts, so chunks are three orders of magnitude coarser than the
// circuit sweep's.
const fastTableGrain = 1 << 12

// TruthTable evaluates the oracle on all 2^n masks. With the semantic
// fast path enabled the sweep is pure word arithmetic; otherwise each
// mask executes U_check on a per-worker scratch register. Either way the
// masks fan out over the parallel pool and the table is bit-identical at
// any worker count (and across the two paths — the differential tests'
// contract).
func (o *Oracle) TruthTable() []bool {
	tt := make([]bool, 1<<uint(o.N))
	if o.fast != nil {
		parallel.For(len(tt), fastTableGrain, func(lo, hi int) {
			for mask := lo; mask < hi; mask++ {
				tt[mask] = o.fast.Marked(uint64(mask), o.T)
			}
		})
		o.metrics.Add("oracle.evals.fast", int64(len(tt)))
		o.metrics.Add("oracle.truthtable.sweeps", 1)
		return tt
	}
	parallel.ForScratch(len(tt), truthTableGrain,
		func() *bitvec.Vector { return bitvec.New(o.circuit.NumQubits()) },
		func(st *bitvec.Vector, lo, hi int) {
			for mask := lo; mask < hi; mask++ {
				tt[mask] = o.markedInto(st, uint64(mask))
			}
		})
	o.metrics.Add("oracle.evals.circuit", int64(len(tt)))
	o.metrics.Add("oracle.truthtable.sweeps", 1)
	return tt
}

// TotalGates returns the gate count of one full oracle call
// (U_check + flip + U_check†), the unit of the paper's time complexity.
func (o *Oracle) TotalGates() int { return o.circuit.Len() }

// ComponentGates returns the per-stage gate counts of one full oracle
// call, the quantity behind the paper's Table IV runtime shares.
func (o *Oracle) ComponentGates() map[string]int { return o.circuit.GateCounts() }

// NumQubits returns the total width of the compiled circuit — the space
// complexity currency of the paper (O(n² log n)).
func (o *Oracle) NumQubits() int { return o.circuit.NumQubits() }
