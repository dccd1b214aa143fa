package oracle

import (
	"testing"

	"repro/internal/graph"
)

// pairBitmask packs a graph's edge set into the pair-index bitmask that
// FuzzFastOracle decodes: pair (u,v), u < v, enumerated row by row, gets
// bit p where p is its position in that enumeration.
func pairBitmask(g *graph.Graph) uint64 {
	var enc uint64
	p := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) {
				enc |= uint64(1) << uint(p)
			}
			p++
		}
	}
	return enc
}

// FuzzFastOracle is the differential fuzz target for the semantic fast
// path: for any (graph, k, T) the fuzzer can reach, the fast truth table
// must match the compiled circuit's truth table bit for bit, and the
// per-mask Marked must match a strict circuit replay.
func FuzzFastOracle(f *testing.F) {
	// Seed with the paper's worked example (Fig. 9: Example6, k=2, T=4)
	// and its size-3 neighbour probes, plus degenerate corners.
	ex6 := pairBitmask(graph.Example6())
	f.Add(uint8(6), ex6, uint8(2), uint8(4))
	f.Add(uint8(6), ex6, uint8(2), uint8(3))
	f.Add(uint8(6), ex6, uint8(1), uint8(3))
	f.Add(uint8(1), uint64(0), uint8(1), uint8(1))
	f.Add(uint8(8), ^uint64(0), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, n uint8, edges uint64, k, T uint8) {
		nn := int(n%8) + 1 // 1..8 keeps the circuit sweep cheap
		g := graph.New(nn)
		p := 0
		for u := 0; u < nn; u++ {
			for v := u + 1; v < nn; v++ {
				if edges&(uint64(1)<<uint(p)) != 0 {
					g.AddEdge(u, v)
				}
				p++
			}
		}
		kk := int(k)%nn + 1
		TT := int(T)%nn + 1
		circuit, err := BuildOpts(g, kk, TT, Options{})
		if err != nil {
			t.Fatalf("circuit build n=%d k=%d T=%d: %v", nn, kk, TT, err)
		}
		fast, err := BuildOpts(g, kk, TT, Options{FastPath: true})
		if err != nil {
			t.Fatalf("fast build n=%d k=%d T=%d: %v", nn, kk, TT, err)
		}
		ctt, ftt := circuit.TruthTable(), fast.TruthTable()
		for mask := range ctt {
			if ctt[mask] != ftt[mask] {
				t.Fatalf("n=%d k=%d T=%d edges=%x mask=%b: circuit %v, fast %v",
					nn, kk, TT, edges, mask, ctt[mask], ftt[mask])
			}
			if fast.Marked(uint64(mask)) != fast.MarkedCircuit(uint64(mask)) {
				t.Fatalf("n=%d k=%d T=%d edges=%x mask=%b: Marked disagrees with circuit replay",
					nn, kk, TT, edges, mask)
			}
		}
	})
}
