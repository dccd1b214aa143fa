package embedding

import (
	"context"
	"fmt"
	"math"

	"repro/internal/anneal"
	"repro/internal/qubo"
)

// Physical is a logical QUBO compiled onto hardware: an Ising over the
// used physical qubits with chain couplings, plus the bookkeeping to map
// spins back to logical assignments.
type Physical struct {
	Ising         *qubo.Ising
	ChainStrength float64

	emb      *Embedding
	compact  []int // physical qubit id -> compact index (-1 unused)
	logical  *qubo.Compiled
	numVars  int
	chainIdx [][]int // per variable: compact indices of its chain
}

// AutoChainStrength returns the default chain coupling weight: 1.5× the
// largest logical coefficient magnitude, the usual rule of thumb.
func AutoChainStrength(m *qubo.Model) float64 {
	maxAbs := 0.0
	for i := 0; i < m.N(); i++ {
		if a := math.Abs(m.Linear(i)); a > maxAbs {
			maxAbs = a
		}
	}
	for _, pair := range m.Interactions() {
		if a := math.Abs(m.Quad(pair[0], pair[1])); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 { //lint:allow floatcmp untouched zero sentinel: only exact zero means no coefficient was seen
		return 1
	}
	return 1.5 * maxAbs
}

// BuildPhysical compiles the model through the embedding: logical fields
// are spread uniformly over each chain, every logical coupler lands on one
// physical coupler between the chains, and every intra-chain coupler gets
// the ferromagnetic chain coupling -chainStrength.
func BuildPhysical(m *qubo.Model, e *Embedding, chainStrength float64) (*Physical, error) {
	if chainStrength <= 0 {
		chainStrength = AutoChainStrength(m)
	}
	logIsing := m.ToIsing()

	p := &Physical{
		ChainStrength: chainStrength,
		emb:           e,
		compact:       make([]int, e.hw.N),
		logical:       m.Compile(),
		numVars:       m.N(),
	}
	for i := range p.compact {
		p.compact[i] = -1
	}
	next := 0
	p.chainIdx = make([][]int, m.N())
	for v, ch := range e.Chains {
		for _, q := range ch {
			p.compact[q] = next
			p.chainIdx[v] = append(p.chainIdx[v], next)
			next++
		}
	}
	phys := &qubo.Ising{N: next, Offset: logIsing.Offset, H: make([]float64, next), J: make(map[[2]int]float64)}

	addJ := func(a, b int, w float64) {
		if a > b {
			a, b = b, a
		}
		phys.J[[2]int{a, b}] += w
	}

	// Fields spread across chains.
	for v, ch := range e.Chains {
		share := logIsing.H[v] / float64(len(ch))
		for _, q := range ch {
			phys.H[p.compact[q]] += share
		}
	}
	// Logical couplers.
	for pair, w := range logIsing.J {
		edge := e.couplerBetween(pair[0], pair[1])
		if edge[0] < 0 {
			return nil, fmt.Errorf("embedding: logical coupler (%d,%d) has no physical edge", pair[0], pair[1])
		}
		addJ(p.compact[edge[0]], p.compact[edge[1]], w)
	}
	// Chain couplings on every intra-chain physical edge.
	for _, ch := range e.Chains {
		for i, a := range ch {
			for _, b := range ch[i+1:] {
				if e.hw.HasEdge(a, b) {
					addJ(p.compact[a], p.compact[b], -chainStrength)
					// Keep the physical ground state's energy aligned
					// with the logical one: an intact chain contributes
					// -chainStrength per coupler.
					phys.Offset += chainStrength
				}
			}
		}
	}
	p.Ising = phys
	return p, nil
}

// Unembed maps physical spins to a logical assignment by majority vote per
// chain (ties resolve to false) and returns it with its LOGICAL energy —
// the paper's chain-break resolution.
func (p *Physical) Unembed(spins []int8) ([]bool, float64) {
	x := make([]bool, p.numVars)
	for v, idxs := range p.chainIdx {
		up := 0
		for _, ci := range idxs {
			if spins[ci] > 0 {
				up++
			}
		}
		x[v] = 2*up > len(idxs)
	}
	return x, p.logical.Energy(x)
}

// ChainBreakFraction reports the fraction of chains whose qubits disagree
// in the given physical spin configuration.
func (p *Physical) ChainBreakFraction(spins []int8) float64 {
	if p.numVars == 0 {
		return 0
	}
	broken := 0
	for _, idxs := range p.chainIdx {
		first := spins[idxs[0]]
		for _, ci := range idxs[1:] {
			if spins[ci] != first {
				broken++
				break
			}
		}
	}
	return float64(broken) / float64(p.numVars)
}

// SampleEmbedded anneals the physical Ising with the SQA sampler and
// returns logical results — the full QPU pipeline: embed → anneal →
// majority-vote unembed. Cancellation is honoured at shot boundaries of
// the underlying SQA run.
func SampleEmbedded(ctx context.Context, m *qubo.Model, e *Embedding, chainStrength float64, params anneal.Params) (anneal.Result, error) {
	p, err := BuildPhysical(m, e, chainStrength)
	if err != nil {
		return anneal.Result{}, err
	}
	return anneal.RunEmbeddedIsing(ctx, p.Ising, params, p.Unembed)
}
