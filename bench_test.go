package repro

// One benchmark per table and figure of the paper's evaluation (run with
// `go test -bench . -benchmem`), plus ablation benchmarks for the design
// choices called out in DESIGN.md §5. Each experiment benchmark executes
// the same driver the cmd/experiments binary uses, in quick mode; the
// reported ns/op is the cost of regenerating that artifact.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/grover"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/qsim"
	"repro/internal/qubo"
	"repro/internal/reduce"
)

func benchExperiment(b *testing.B, name string) {
	runner, err := exp.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }

// --- Ablations (DESIGN.md §5) ---

// Oracle evaluation: cached truth-table style (forward-only classical
// execution) versus strict mode (full U_check / flip / U_check† with the
// ancilla reset verification).
func BenchmarkAblationOracleFastPath(b *testing.B) {
	g := graph.Example6()
	orc, err := oracle.BuildOpts(g, 2, 4, oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for mask := uint64(0); mask < 64; mask++ {
			orc.Marked(mask)
		}
	}
}

func BenchmarkAblationOracleStrictPath(b *testing.B) {
	g := graph.Example6()
	orc, err := oracle.BuildOpts(g, 2, 4, oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for mask := uint64(0); mask < 64; mask++ {
			if _, _, err := orc.MarkedStrict(mask); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Degree counting: the paper-faithful adder chain versus the ancilla-free
// controlled-increment variant (gate- and qubit-count trade-off).
func BenchmarkAblationAdderCounting(b *testing.B) {
	g, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		b.Fatal(err)
	}
	gr := g.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc, err := oracle.BuildOpts(gr, 2, 6, oracle.Options{})
		if err != nil {
			b.Fatal(err)
		}
		orc.TruthTable()
	}
}

func BenchmarkAblationCompactCounting(b *testing.B) {
	g, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		b.Fatal(err)
	}
	gr := g.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc, err := oracle.BuildOpts(gr, 2, 6, oracle.Options{CompactCounting: true})
		if err != nil {
			b.Fatal(err)
		}
		orc.TruthTable()
	}
}

// BS baseline with and without core–truss co-pruning. The pruned variant
// times the whole pipeline: greedy witness, co-pruning for one more, and
// BS on the kernel (the witness stands when the kernel is empty).
func BenchmarkAblationBSRaw(b *testing.B) {
	d, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kplex.BS(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBSWithPruning(b *testing.B) {
	d, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb := kplex.Greedy(g, 2)
		kern := reduce.CoTruss(g, 2, len(lb)+1)
		if kern.Sub.N() == 0 {
			continue
		}
		if _, err := kplex.BS(kern.Sub, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// qaMKP on the logical QUBO versus through the embedding pipeline (chain
// overhead — the Fig. 12 story).
func BenchmarkAblationAnnealLogical(b *testing.B) {
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		b.Fatal(err)
	}
	g := exp.AnnealInput(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveAnneal(context.Background(), g, core.Spec{Algo: core.AlgoAnneal, K: 3,
			Anneal: &core.AnnealOptions{Shots: 50, DeltaT: 2, Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAnnealEmbedded(b *testing.B) {
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		b.Fatal(err)
	}
	g := exp.AnnealInput(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := qubo.FormulateMKP(g, 3, 2)
		if err != nil {
			b.Fatal(err)
		}
		emb, _, err := embedding.EmbedOnHardware(enc.Model, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := embedding.SampleEmbedded(context.Background(), enc.Model, emb, 0,
			anneal.Params{Shots: 50, Sweeps: 2 * core.SweepsPerMicrosecond, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Samplers head to head on the same QUBO and budget.
func BenchmarkAblationSamplerSQA(b *testing.B) {
	benchSampler(b, func(m *qubo.Model) error {
		_, err := anneal.SQA(context.Background(), m, anneal.Params{Shots: 100, Sweeps: 10, Seed: 1})
		return err
	})
}

func BenchmarkAblationSamplerSA(b *testing.B) {
	benchSampler(b, func(m *qubo.Model) error {
		_, err := anneal.SA(context.Background(), m, anneal.Params{Shots: 100, Sweeps: 10, Seed: 1})
		return err
	})
}

func benchSampler(b *testing.B, run func(*qubo.Model) error) {
	d, err := graph.PaperDataset("D_{20,100}")
	if err != nil {
		b.Fatal(err)
	}
	enc, err := qubo.FormulateMKP(exp.AnnealInput(d), 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(enc.Model); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel-vs-serial ablations (DESIGN.md §5) ---
//
// Each pair runs the identical workload with the worker pool pinned to one
// worker versus the machine default; outputs are bit-identical either way
// (the internal/parallel contract), so the pairs isolate pure wall-clock
// effect of the fan-out.

func pinWorkers(b *testing.B, n int) {
	b.Helper()
	prev := parallel.SetWorkers(n)
	b.Cleanup(func() { parallel.SetWorkers(prev) })
}

func benchTruthTable(b *testing.B) {
	g, err := graph.PaperDataset("G_{10,23}")
	if err != nil {
		b.Fatal(err)
	}
	orc, err := oracle.BuildOpts(g.Build(), 2, 6, oracle.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc.TruthTable()
	}
}

func BenchmarkAblationSerialTruthTable(b *testing.B) {
	pinWorkers(b, 1)
	benchTruthTable(b)
}

func BenchmarkAblationParallelTruthTable(b *testing.B) {
	pinWorkers(b, 0)
	benchTruthTable(b)
}

func benchGroverIteration(b *testing.B) {
	s := qsim.NewStatevector(16)
	s.EqualSuperposition()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyPhaseOracle(func(m uint64) bool { return m%97 == 0 })
		s.ApplyDiffusion()
	}
}

func BenchmarkAblationSerialGroverIteration(b *testing.B) {
	pinWorkers(b, 1)
	benchGroverIteration(b)
}

func BenchmarkAblationParallelGroverIteration(b *testing.B) {
	pinWorkers(b, 0)
	benchGroverIteration(b)
}

func benchSAShots(b *testing.B) {
	benchSampler(b, func(m *qubo.Model) error {
		_, err := anneal.SA(context.Background(), m, anneal.Params{Shots: 100, Sweeps: 10, Seed: 1})
		return err
	})
}

func BenchmarkAblationSerialSAShots(b *testing.B) {
	pinWorkers(b, 1)
	benchSAShots(b)
}

func BenchmarkAblationParallelSAShots(b *testing.B) {
	pinWorkers(b, 0)
	benchSAShots(b)
}

func benchCounting(b *testing.B) {
	pred := func(m uint64) bool { return m%5 == 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grover.CountMarked(10, 7, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSerialCounting(b *testing.B) {
	pinWorkers(b, 1)
	benchCounting(b)
}

func BenchmarkAblationParallelCounting(b *testing.B) {
	pinWorkers(b, 0)
	benchCounting(b)
}

// --- Semantic fast-path vs circuit replay (DESIGN.md §7) ---
//
// Both paths answer the identical predicate (differentially tested, so
// the pairs below time the same work), at n = 16 — beyond the paper's
// instances, where the circuit sweep costs 2^16 replays of a ~4000-gate
// oracle and the semantic sweep costs 2^16 popcount probes.

func benchOracleSweep(b *testing.B, fast bool) {
	g := graph.Gnm(16, 80, 3)
	orc, err := oracle.BuildOpts(g, 2, 4, oracle.Options{FastPath: fast})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc.TruthTable()
	}
}

func BenchmarkOracleSweep(b *testing.B) {
	b.Run("circuit", func(b *testing.B) { benchOracleSweep(b, false) })
	b.Run("fast", func(b *testing.B) { benchOracleSweep(b, true) })
}

func benchQMKPBinarySearch(b *testing.B, disableFast bool) {
	g := graph.Gnm(16, 80, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveMKP(context.Background(), g, core.Spec{Algo: core.AlgoMKP, K: 2, Gate: &core.GateOptions{
			Rng:             rand.New(rand.NewSource(1)),
			DisableFastPath: disableFast,
		}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Size == 0 {
			b.Fatal("binary search found nothing")
		}
	}
}

func BenchmarkQMKPBinarySearch(b *testing.B) {
	b.Run("circuit", func(b *testing.B) { benchQMKPBinarySearch(b, true) })
	b.Run("fast", func(b *testing.B) { benchQMKPBinarySearch(b, false) })
}

// Grover search cost growth: the O*(2^{n/2}) oracle-call scaling.
func BenchmarkQMKPByN(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		g := graph.Gnm(n, n*(n-1)/3, 7)
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveMKP(context.Background(), g, core.Spec{Algo: core.AlgoMKP, K: 2,
					Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(1))}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byN(n int) string {
	return "n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// --- Observability ablation ---
//
// The nil-observer run is the default configuration: the obs plumbing is
// threaded through every layer but inert, and must stay within noise of
// the pre-instrumentation cost (hot loops guard attr construction with
// Trace.Enabled, counters are bulk-added once per sweep). The traced run
// quantifies what switching the recorder and registry on costs.

func benchObserver(b *testing.B, o func() obs.Obs) {
	g := graph.Gnm(10, 23, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveMKP(context.Background(), g, core.Spec{
			Algo: core.AlgoMKP, K: 2,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(1))},
			Obs:  o(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Size == 0 {
			b.Fatal("solve found nothing")
		}
	}
}

func BenchmarkAblationObserverNil(b *testing.B) {
	benchObserver(b, func() obs.Obs { return obs.Obs{} })
}

func BenchmarkAblationObserverTrace(b *testing.B) {
	benchObserver(b, func() obs.Obs {
		return obs.Obs{Trace: obs.NewTrace(obs.NewRecorder()), Metrics: obs.NewMetrics()}
	})
}
