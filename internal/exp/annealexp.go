package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/milp"
	"repro/internal/qubo"
)

// Table5 reproduces the annealing-time study: cost under a fixed total
// budget Δt·s = 1000 µs as Δt varies, for the four D datasets (k=3, R=2).
func Table5(cfg Config) (Result, error) {
	budget := 1000
	deltas := []int{1, 10, 20, 40, 100, 200}
	if cfg.Quick {
		budget = 200
		deltas = []int{1, 10, 40, 200}
	}
	t := &Table{
		ID:     "table5",
		Title:  fmt.Sprintf("qaMKP cost vs annealing time Δt at fixed budget Δt·s = %d µs (Table V, k=3, R=2)", budget),
		Header: []string{"dataset"},
	}
	for _, dt := range deltas {
		t.Header = append(t.Header, fmt.Sprintf("Δt=%dµs", dt))
	}
	for _, name := range []string{"D_{10,40}", "D_{15,70}", "D_{20,100}", "D_{30,300}"} {
		d, err := graph.PaperDataset(name)
		if err != nil {
			return Result{}, err
		}
		g := AnnealInput(d)
		row := []string{name}
		for _, dt := range deltas {
			shots := budget / dt
			if shots < 1 {
				shots = 1
			}
			res, err := core.SolveAnneal(context.Background(), g, core.Spec{
				Algo: core.AlgoAnneal, K: 3,
				Anneal: &core.AnnealOptions{R: 2, DeltaT: dt, Shots: shots, Seed: cfg.seed()},
				Obs:    cfg.Obs,
			})
			if err != nil {
				return Result{}, fmt.Errorf("%s Δt=%d: %w", name, dt, err)
			}
			row = append(row, fmt.Sprintf("%.0f", res.Cost))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("1 µs of annealing time ≙ %d Monte-Carlo sweeps of the SQA substrate", core.SweepsPerMicrosecond))
	return Result{Table: t}, nil
}

// Table6 reproduces the penalty-weight study on D_{10,40}: cost versus
// total runtime for R ∈ {1.1, 2, 4, 8}; entries are marked with '*' when
// the decoded solution reaches the exact optimum (the paper's boldface).
func Table6(cfg Config) (Result, error) {
	runtimes := []int{1, 5, 10, 50, 100, 500, 1000}
	if cfg.Quick {
		runtimes = []int{1, 10, 100}
	}
	d, err := graph.PaperDataset("D_{10,40}")
	if err != nil {
		return Result{}, err
	}
	g := AnnealInput(d)
	opt, err := kplex.BS(g, 3)
	if err != nil {
		return Result{}, err
	}
	t := &Table{
		ID:     "table6",
		Title:  "qaMKP cost vs penalty weight R on D_{10,40} (Table VI, k=3, Δt=1µs)",
		Header: []string{"R"},
	}
	for _, rt := range runtimes {
		t.Header = append(t.Header, fmt.Sprintf("%dµs", rt))
	}
	for _, r := range []float64{1.1, 2, 4, 8} {
		row := []string{fmt.Sprintf("%g", r)}
		maxShots := runtimes[len(runtimes)-1]
		res, err := core.SolveAnneal(context.Background(), g, core.Spec{
			Algo: core.AlgoAnneal, K: 3,
			Anneal: &core.AnnealOptions{R: r, DeltaT: 1, Shots: maxShots, Seed: cfg.seed()},
			Obs:    cfg.Obs,
		})
		if err != nil {
			return Result{}, err
		}
		// One long run; read the anytime trace at each runtime. Optimal
		// detection re-runs with the truncated budget to get the set.
		for _, rt := range runtimes {
			cost := res.Trace[rt-1]
			cell := fmt.Sprintf("%.1f", cost)
			sub, err := core.SolveAnneal(context.Background(), g, core.Spec{
				Algo: core.AlgoAnneal, K: 3,
				Anneal: &core.AnnealOptions{R: r, DeltaT: 1, Shots: rt, Seed: cfg.seed()},
				Obs:    cfg.Obs,
			})
			if err != nil {
				return Result{}, err
			}
			// The paper bolds runs where the optimum was found, which
			// can happen before the cost minimum (slack bits need not be
			// optimal, Section IV-C) — hence the best VALID decode.
			if len(sub.BestValidSet) == opt.Size {
				cell += " *"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("'*' marks runs whose decoded k-plex reaches the exact optimum (size %d); the paper bolds these", opt.Size),
		"the optimum can be reached before the cost minimum: slack bits need not be optimal (Section IV-C)")
	return Result{Table: t}, nil
}

// costRuntimeFigure builds the cost-vs-runtime comparison of qaMKP (SQA),
// SA, MILP and the hybrid solver on one dataset.
func costRuntimeFigure(id, dataset string, embed bool, cfg Config) (Result, error) {
	d, err := graph.PaperDataset(dataset)
	if err != nil {
		return Result{}, err
	}
	g := AnnealInput(d)
	enc, err := qubo.FormulateMKP(g, 3, 2)
	if err != nil {
		return Result{}, err
	}

	qaShots := 10000
	saShots := 5000
	milpLimit := 2 * time.Second
	hybridFloor := 300 * time.Millisecond
	if cfg.Quick {
		qaShots, saShots = 500, 250
		milpLimit = 100 * time.Millisecond
		hybridFloor = 20 * time.Millisecond
	}
	if embed {
		qaShots /= 10 // the physical model is an order of magnitude larger
	}

	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Objective cost vs runtime on %s (k=3, R=2, Δt=1µs)", dataset),
		XLabel: "runtime (µs; modelled sweeps for annealers, wall clock for MILP/hybrid)",
		YLabel: "objective cost (Eq. objective)",
	}

	// qaMKP: SQA at Δt=1, cumulative µs = shot index.
	var qaTrace []float64
	if embed {
		emb, _, err := embedding.EmbedOnHardware(enc.Model, cfg.seed())
		if err != nil {
			return Result{}, err
		}
		res, err := embedding.SampleEmbedded(context.Background(), enc.Model, emb, 0,
			anneal.Params{Shots: qaShots, Sweeps: core.SweepsPerMicrosecond, Seed: cfg.seed()})
		if err != nil {
			return Result{}, err
		}
		stats := emb.Stats()
		f.Notes = append(f.Notes, fmt.Sprintf(
			"qaMKP embedded: %d logical vars on %d physical qubits (avg chain %.1f) — convergence weakens, the paper's Fig. 12 observation",
			stats.Variables, stats.PhysicalQubits, stats.AvgChain))
		qaTrace = res.BestAfterShot
	} else {
		res, err := anneal.SQA(context.Background(), enc.Model, anneal.Params{Shots: qaShots, Sweeps: core.SweepsPerMicrosecond, Seed: cfg.seed()})
		if err != nil {
			return Result{}, err
		}
		qaTrace = res.BestAfterShot
	}
	f.Series = append(f.Series, traceSeries("qaMKP (SQA, Δt=1µs)", qaTrace, 1))

	// SA baseline: the paper fixes 2 sweeps per shot.
	saRes, err := anneal.SA(context.Background(), enc.Model, anneal.Params{Shots: saShots, Sweeps: 2 * core.SweepsPerMicrosecond, Seed: cfg.seed()})
	if err != nil {
		return Result{}, err
	}
	f.Series = append(f.Series, traceSeries("SA (2 sweeps/shot)", saRes.BestAfterShot, 2))

	// MILP (Gurobi stand-in): anytime incumbent timeline, wall clock.
	milpRes, err := milp.Solve(enc.Model.Linearize(), milp.Options{TimeLimit: milpLimit})
	if err != nil {
		return Result{}, err
	}
	ms := Series{Name: "MILP (exact B&B)"}
	for _, p := range milpRes.Timeline {
		ms.X = append(ms.X, float64(p.Elapsed.Nanoseconds())/1e3)
		ms.Y = append(ms.Y, p.Cost)
	}
	f.Series = append(f.Series, ms)
	if milpRes.Optimal {
		f.Notes = append(f.Notes, fmt.Sprintf("MILP proved optimality at cost %.1f", milpRes.Cost))
	} else {
		f.Notes = append(f.Notes, fmt.Sprintf("MILP hit its %v limit with incumbent %.1f", milpLimit, milpRes.Cost))
	}

	// Hybrid: one point at its runtime contract.
	h, err := anneal.Hybrid(context.Background(), enc.Model, anneal.HybridParams{MinRuntime: hybridFloor, Seed: cfg.seed()})
	if err != nil {
		return Result{}, err
	}
	f.Series = append(f.Series, Series{
		Name: "haMKP (hybrid, single point)",
		X:    []float64{float64(h.Elapsed.Nanoseconds()) / 1e3},
		Y:    []float64{h.Best.Energy},
	})
	return Result{Figure: f}, nil
}

// traceSeries converts a best-after-shot trace into a log-sampled series
// (x = cumulative µs with the given per-shot µs).
func traceSeries(name string, trace []float64, usPerShot float64) Series {
	s := Series{Name: name}
	last := -1
	for _, idx := range logIndices(len(trace)) {
		if idx == last {
			continue
		}
		last = idx
		s.X = append(s.X, float64(idx+1)*usPerShot)
		s.Y = append(s.Y, trace[idx])
	}
	return s
}

// logIndices yields ~log-spaced indices 0..n-1 (1,2,5 pattern).
func logIndices(n int) []int {
	var out []int
	for base := 1; base <= n; base *= 10 {
		for _, m := range []int{1, 2, 5} {
			if v := base * m; v <= n {
				out = append(out, v-1)
			}
		}
	}
	if len(out) == 0 || out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// Fig11 reproduces the solver comparison on D_{20,100}.
func Fig11(cfg Config) (Result, error) {
	return costRuntimeFigure("fig11", "D_{20,100}", false, cfg)
}

// Fig12 reproduces the solver comparison on the larger D_{30,300}, with
// qaMKP run through the embedding pipeline (chain overhead explains its
// weaker convergence there, Section V-H).
func Fig12(cfg Config) (Result, error) {
	return costRuntimeFigure("fig12", "D_{30,300}", true, cfg)
}

// Table7 reproduces the varying-k study for qaMKP on D_{20,100}.
func Table7(cfg Config) (Result, error) {
	runtimes := []int{1, 5, 10, 50, 100, 500, 1000, 4000}
	if cfg.Quick {
		runtimes = []int{1, 10, 100, 500}
	}
	d, err := graph.PaperDataset("D_{20,100}")
	if err != nil {
		return Result{}, err
	}
	g := AnnealInput(d)
	t := &Table{
		ID:     "table7",
		Title:  "qaMKP cost vs runtime for k = 2..5 on D_{20,100} (Table VII, R=2, Δt=1µs)",
		Header: []string{"k"},
	}
	for _, rt := range runtimes {
		t.Header = append(t.Header, fmt.Sprintf("%dµs", rt))
	}
	maxShots := runtimes[len(runtimes)-1]
	for k := 2; k <= 5; k++ {
		res, err := core.SolveAnneal(context.Background(), g, core.Spec{
			Algo: core.AlgoAnneal, K: k,
			Anneal: &core.AnnealOptions{R: 2, DeltaT: 1, Shots: maxShots, Seed: cfg.seed()},
			Obs:    cfg.Obs,
		})
		if err != nil {
			return Result{}, err
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, rt := range runtimes {
			row = append(row, fmt.Sprintf("%.0f", res.Trace[rt-1]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "cost decreases with runtime for every k; no distinct cross-k pattern (Section V-G)")
	return Result{Table: t}, nil
}
