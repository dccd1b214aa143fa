package oracle

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// benchGraph is the quantum-paper workload's qMKP shape, G(14, 45) at
// k = 2; its probes ask T = 5 and T = 6.
func benchGraph() *graph.Graph { return graph.Gnm(14, 45, 1) }

var benchOracle *Oracle

// BenchmarkBuildOpts times one full compile, stages I–IV, the flip, the
// uncompute and the lint: what SolveTKP and the experiments pay per
// oracle.
func BenchmarkBuildOpts(b *testing.B) {
	g := benchGraph()
	for _, T := range []int{5, 6} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := BuildOpts(g, 2, T, Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchOracle = o
			}
		})
	}
}

// BenchmarkStagesBuild times one qMKP probe's share of the oracle: the
// per-threshold Build on stages compiled once per request.
func BenchmarkStagesBuild(b *testing.B) {
	s, err := CompileStages(benchGraph(), 2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, T := range []int{5, 6} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := s.Build(T)
				if err != nil {
					b.Fatal(err)
				}
				benchOracle = o
			}
		})
	}
}

// maxBuildAllocs bounds the allocations of one BuildOpts at the
// benchmark shape. Before gates became pointer-free records with their
// controls in one array per circuit, the ledger was indexed by block and
// U_check's mirror went into reserved room, a build made 2 824
// allocations (2 829 at another seed); now it makes 561, mostly qubit
// labels and the arithmetic builders' registers. The ceiling is a
// quarter of the old count, so the per-gate churn cannot creep back.
const maxBuildAllocs = 2829 / 4

func TestBuildOptsAllocCeiling(t *testing.T) {
	g := benchGraph()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildOpts(g, 2, 5, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxBuildAllocs {
		t.Errorf("BuildOpts at G(14, 45), k = 2, T = 5 makes %.0f allocations, the ceiling is %d", allocs, maxBuildAllocs)
	}
}
