package kplex_test

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/parallel"
)

// benchGraph returns the named end-to-end benchmark instance: the two
// checked-in DIMACS files plus a seeded 64-vertex G(n,m) at the top of
// the one-word mask range.
func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	switch name {
	case "n64":
		return graph.Gnm(64, 256, 7)
	case "n100", "n200":
		file := map[string]string{"n100": "gnm100.clq", "n200": "gnm200.clq"}[name]
		g, err := graph.ReadFile("../graph/testdata/" + file)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Fatalf("unknown instance %q", name)
	return nil
}

// The kernelize-then-search A/B: each instance family carries the
// kernel-on/off pair and the 1-vs-8-worker pair, which benchjson folds
// into BENCH_ISSUE8.json's speedup entries. Answers are identical across
// all four variants (the differential tests enforce it); only the cost
// moves. The worker pair measures the wave-parallel mode: on a
// single-core host it shows scheduling overhead rather than speedup —
// EXPERIMENTS.md records which.
func BenchmarkBBEndToEnd(b *testing.B) {
	const k = 2
	for _, name := range []string{"n64", "n100", "n200"} {
		g := benchGraph(b, name)
		b.Run(name+"/nokernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{DisableKernel: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, w := range []int{1, 2, 8} {
			b.Run(name+"/workers"+map[int]string{1: "1", 2: "2", 8: "8"}[w], func(b *testing.B) {
				prev := parallel.SetWorkers(w)
				defer parallel.SetWorkers(prev)
				for i := 0; i < b.N; i++ {
					if _, err := kplex.BBOpt(context.Background(), g, k, kplex.BBOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
