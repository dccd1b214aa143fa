package anneal

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/qubo"
)

// BenchmarkSQA times one SQA run in the daemon's qaMKP shape: the 2-plex
// QUBO of G(10, 40), 200 shots of 50 sweeps (Δt = 5) with an OnSample
// hook, as core.SolveAnneal runs it. R = 2 gives dyadic Ising weights,
// so the slices keep their local fields; at R = 1.1 they are recomputed
// per proposal.
func BenchmarkSQA(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    float64
	}{{"R=2", 2}, {"R=1.1", 1.1}} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := qubo.FormulateMKP(graph.Gnm(10, 40, 1), 2, bc.r)
			if err != nil {
				b.Fatal(err)
			}
			p := Params{Shots: 200, Sweeps: 50, Seed: 1, OnSample: func([]bool, float64) {}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SQA(context.Background(), e.Model, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
