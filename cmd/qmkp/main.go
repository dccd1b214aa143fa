// Command qmkp solves maximum k-plex instances with the algorithms of the
// reproduction: the gate-based qTKP/qMKP (simulated), the annealing-based
// qaMKP, and the classical baselines.
//
// Usage:
//
//	qmkp -algo qmkp  -k 2 -graph graph.txt
//	qmkp -algo qamkp -k 3 -gen 20,100 -shots 500 -deltat 5
//	qmkp -algo bs    -k 2 -dataset 'G_{10,23}'
//	qmkp -algo qmkp  -k 2 -dataset 'G_{10,23}' -trace-out trace.jsonl -metrics-out metrics.json
//	qmkp -json-in request.json -json-out -
//
// Input is either -graph (a DIMACS-style p/e file — .clq/.col headers
// included — or a SNAP-style .snap/.edges list; see internal/graph),
// -gen n,m (a seeded random graph) or -dataset (a named paper dataset).
//
// -json-in switches to the versioned wire schema shared with the
// solver daemon (internal/api): the file (or stdin, "-") holds one
// api.SolveRequest, the solve runs through the same dispatcher the
// daemon uses, and the api.SolveResult is written to -json-out (stdout
// by default). A CLI answer and a daemon answer for the same request
// document are therefore the same JSON.
//
// Runs are cancellable: -timeout bounds the solve, and an interrupt
// (Ctrl-C) stops it at the next probe/try/shot boundary; either way the
// best solution found so far is printed before exiting. Exit codes
// distinguish failure classes (the table lives in internal/api, shared
// with the daemon's HTTP status mapping):
//
//	0  solved
//	1  input/runtime error
//	2  bad request (core.ErrBadSpec: empty graph, k, T or -gen out of range, R ≤ 1, unknown sampler)
//	3  instance too large for the gate simulator (core.ErrTooLarge)
//	4  verified infeasible (core.ErrInfeasible, qtkp only)
//	5  canceled or timed out (core.ErrCanceled)
//
// Observability: -trace-out writes the deterministic span/event trace as
// JSONL, -metrics-out the counter/gauge snapshot as JSON ("-" = stdout
// for both); -cpuprofile, -memprofile and -exectrace capture the usual
// runtime profiles.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/club"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obsio"
	"repro/internal/parallel"
	"repro/internal/reduce"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qmkp:", err)
		os.Exit(api.ExitCode(err))
	}
}

// run is the whole command: it parses args and writes every answer line
// to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qmkp", flag.ExitOnError)
	var (
		algo     = fs.String("algo", "qmkp", "algorithm: qmkp | qtkp | qamkp | bb | bs | naive | greedy | tabu | qnclub")
		k        = fs.Int("k", 2, "k-plex parameter")
		clubL    = fs.Int("club", 2, "qnclub: diameter bound n of the n-club")
		tSize    = fs.Int("T", 0, "size threshold (qtkp only)")
		file     = fs.String("graph", "", "edge-list file (p/e format, 1-based vertices)")
		gen      = fs.String("gen", "", "generate a random graph: n,m")
		dataset  = fs.String("dataset", "", "named paper dataset, e.g. 'G_{10,23}'")
		seed     = fs.Int64("seed", 1, "random seed")
		shots    = fs.Int("shots", 200, "qaMKP: number of anneals")
		deltaT   = fs.Int("deltat", 5, "qaMKP: sweeps per anneal (µs analogue)")
		rPen     = fs.Float64("R", 2, "qaMKP: penalty weight (must be > 1)")
		embed    = fs.Bool("embed", false, "qaMKP: run through the hardware-embedding pipeline")
		coPrune  = fs.Bool("reduce", false, "apply core-truss co-pruning before solving (k-plex algorithms; answers stay in input ids)")
		nokernel = fs.Bool("nokernel", false, "bb: skip kernelization (degree peeling + component split) and search the raw graph")
		workers  = fs.Int("workers", 0, "worker count for parallel phases (0 = keep REPRO_WORKERS / NumCPU default); results are identical at any value")
		circuit  = fs.Bool("circuit", false, "qmkp/qtkp: force oracle evaluation through circuit replay (disables the semantic fast path; same results, slower)")

		jsonIn  = fs.String("json-in", "", "read one api.SolveRequest (wire schema v1) from this file ('-' = stdin) and solve it through the daemon's dispatcher; replaces the flag-based input")
		jsonOut = fs.String("json-out", "", "with -json-in: write the api.SolveResult JSON here ('-' = stdout, the default)")

		timeout    = fs.Duration("timeout", 0, "cancel the solve after this duration (0 = none); the best solution so far is still printed")
		traceOut   = fs.String("trace-out", "", "write the deterministic span/event trace as JSONL to this file ('-' = stdout)")
		metricsOut = fs.String("metrics-out", "", "write the counter/gauge snapshot as JSON to this file ('-' = stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		exectrace  = fs.String("exectrace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	stopProfiles, err := obsio.StartProfiles(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "qmkp: profiles:", perr)
		}
	}()

	sink := obsio.New(*traceOut, *metricsOut)
	defer func() {
		if ferr := sink.Flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, "qmkp:", ferr)
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *jsonOut != "" && *jsonIn == "" {
		return fmt.Errorf("-json-out requires -json-in: %w", core.ErrBadSpec)
	}
	if *jsonIn != "" {
		return runJSON(ctx, w, *jsonIn, *jsonOut, sink)
	}

	g, err := loadGraph(*file, *gen, *dataset, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "input: %v, k=%d\n", g, *k)
	if *algo != "qnclub" && *k < 1 {
		return fmt.Errorf("k=%d must be ≥ 1: %w", *k, core.ErrBadSpec)
	}
	if *algo == "qtkp" && *tSize < 1 {
		return fmt.Errorf("qtkp needs -T ≥ 1: %w", core.ErrBadSpec)
	}

	out := printer{w: w}
	if *coPrune {
		// Co-prune for the size the algorithm must reach: T for qtkp, one
		// more than the greedy witness for the maximising algorithms.
		// Every k-plex of that size survives; n-clubs need not.
		if *algo == "qnclub" {
			return fmt.Errorf("-reduce preserves k-plexes, not n-clubs: %w", core.ErrBadSpec)
		}
		q := *tSize
		if *algo != "qtkp" {
			out.witness = kplex.Greedy(g, *k)
			q = len(out.witness) + 1
		}
		kern := reduce.CoTruss(g, *k, q)
		fmt.Fprintf(w, "reduction: removed %d vertices, keeping every %d-plex of size ≥ %d\n", kern.Stats.Peeled, *k, q)
		if kern.Sub.N() < q {
			if *algo == "qtkp" {
				fmt.Fprintf(w, "no %d-plex of size ≥ %d exists (verified absence)\n", *k, q)
				return fmt.Errorf("co-pruning left %d vertices: %w", kern.Sub.N(), core.ErrInfeasible)
			}
			out.solution("solution: size %d, set %v (greedy optimal after reduction)\n", out.witness)
			return nil
		}
		g, out.kern = kern.Sub, &kern
	}

	switch *algo {
	case "qmkp":
		res, err := core.SolveMKP(ctx, g, core.Spec{
			Algo: core.AlgoMKP, K: *k,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(*seed)), DisableFastPath: *circuit},
			Obs:  sink.Obs,
		})
		if err != nil && !errors.Is(err, core.ErrCanceled) {
			return err
		}
		for _, p := range res.Progress {
			status := "no plex of that size"
			if p.Found {
				status = fmt.Sprintf("found size %d", p.Size)
			}
			fmt.Fprintf(w, "  probe T=%-3d %-22s cum. modelled QPU %v\n", p.T, status, p.CumQPUTime)
		}
		if err != nil {
			out.solution("canceled: best size so far %d, set %v\n", res.Set)
			return err
		}
		out.solution("solution: size %d, set %v\n", res.Set)
		fmt.Fprintf(w, "cost: %d oracle calls, %d gates, modelled QPU %v, wall %v, error prob %.2e\n",
			res.OracleCalls, res.Gates, res.QPUTime, res.WallTime, res.ErrorProbability)
	case "qtkp":
		res, err := core.SolveTKP(ctx, g, core.Spec{
			Algo: core.AlgoTKP, K: *k, T: *tSize,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(*seed)), DisableFastPath: *circuit},
			Obs:  sink.Obs,
		})
		switch {
		case errors.Is(err, core.ErrInfeasible):
			fmt.Fprintf(w, "no %d-plex of size ≥ %d exists (verified absence)\n", *k, *tSize)
			return err
		case errors.Is(err, core.ErrCanceled):
			fmt.Fprintln(w, "canceled before the probe finished")
			return err
		case err != nil:
			return err
		}
		out.solution("solution: size %d, set %v (M=%d, %d iterations, error prob %.2e)\n",
			res.Set, res.M, res.Iterations, res.ErrorProbability)
	case "qamkp":
		res, err := core.SolveAnneal(ctx, g, core.Spec{
			Algo: core.AlgoAnneal, K: *k,
			Anneal: &core.AnnealOptions{R: *rPen, Shots: *shots, DeltaT: *deltaT, Seed: *seed, Embed: *embed},
			Obs:    sink.Obs,
		})
		if err != nil && !errors.Is(err, core.ErrCanceled) {
			return err
		}
		fmt.Fprintf(w, "model: %d binary variables (%d slack)\n", res.Variables, res.SlackVars)
		if res.EmbedStats != nil {
			fmt.Fprintf(w, "embedding: %d physical qubits, avg chain %.2f, max chain %d\n",
				res.EmbedStats.PhysicalQubits, res.EmbedStats.AvgChain, res.EmbedStats.MaxChain)
		}
		// A set the greedy witness replaced is a valid k-plex.
		valid := res.Valid || len(out.answer(res.Set)) > len(res.Set)
		if err != nil {
			out.solution("canceled: best over completed shots: size %d, set %v (valid k-plex: %v), cost %.2f\n",
				res.Set, valid, res.Cost)
			return err
		}
		out.solution("solution: size %d, set %v (valid k-plex: %v), cost %.2f\n", res.Set, valid, res.Cost)
	case "bs":
		res, err := kplex.BS(g, *k)
		if err != nil {
			return err
		}
		out.solution("solution: size %d, set %v (%d nodes expanded)\n", res.Set, res.Nodes)
	case "bb":
		res, err := kplex.BBOpt(ctx, g, *k, kplex.BBOptions{Obs: sink.Obs, DisableKernel: *nokernel})
		switch {
		case errors.Is(err, kplex.ErrCanceled):
			out.solution("canceled: best size so far %d, set %v (%d nodes expanded)\n", res.Set, res.Nodes)
			return fmt.Errorf("%w (bb): %w", core.ErrCanceled, err)
		case err != nil:
			return err
		}
		out.solution("solution: size %d, set %v (%d nodes expanded)\n", res.Set, res.Nodes)
	case "naive":
		res, err := kplex.Naive(g, *k)
		if err != nil {
			return err
		}
		out.solution("solution: size %d, set %v (%d subsets scanned)\n", res.Set, res.Nodes)
	case "greedy":
		out.solution("solution: size %d, set %v (heuristic lower bound)\n", kplex.Greedy(g, *k))
	case "tabu":
		out.solution("solution: size %d, set %v (tabu-search lower bound)\n",
			kplex.TabuSearch(g, *k, kplex.TabuOptions{Seed: *seed}))
	case "qnclub":
		res, err := club.QMaxClub(g, *clubL, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		out.solution("solution: maximum %[3]d-club of size %[1]d, set %[2]v (%[4]d oracle calls)\n",
			res.Set, *clubL, res.Nodes)
	default:
		return fmt.Errorf("unknown algorithm %q: %w", *algo, core.ErrBadSpec)
	}
	return nil
}

// runJSON is the wire-schema mode: one api.SolveRequest in, one
// api.SolveResult out, through the exact dispatcher the daemon uses
// (server.Execute). The request's own timeout_ms composes with -timeout
// and Ctrl-C — whichever fires first cancels the solve. Errors are
// reported both in-band (error_kind/error in the result document) and
// through the process exit code, so scripts can pick either signal.
func runJSON(ctx context.Context, w io.Writer, in, out string, sink *obsio.Sink) error {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	req, err := api.DecodeSolveRequest(src)
	if err != nil {
		return err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, solveErr := server.Execute(ctx, req, sink.Obs)
	if res == nil {
		res = &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	}
	res.SetError(solveErr)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		if _, err := w.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	return solveErr
}

func loadGraph(file, gen, dataset string, seed int64) (*graph.Graph, error) {
	sources := 0
	for _, s := range []string{file, gen, dataset} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of -graph, -gen, -dataset")
	}
	switch {
	case file != "":
		// Dispatches on the extension: DIMACS .clq/.col/p-e files and
		// SNAP-style .snap/.edges lists both load.
		return graph.ReadFile(file)
	case gen != "":
		var n, m int
		if _, err := fmt.Sscanf(strings.ReplaceAll(gen, " ", ""), "%d,%d", &n, &m); err != nil {
			return nil, fmt.Errorf("bad -gen %q: want n,m", gen)
		}
		if n < 1 || m < 0 || m > n*(n-1)/2 {
			return nil, fmt.Errorf("bad -gen %q: want n ≥ 1 and 0 ≤ m ≤ n(n-1)/2: %w", gen, core.ErrBadSpec)
		}
		return graph.Gnm(n, m, seed), nil
	default:
		d, err := graph.PaperDataset(dataset)
		if err != nil {
			return nil, err
		}
		return d.Build(), nil
	}
}

// printer writes the answer lines. Under -reduce the solver ran on the
// co-pruned kernel, and a maximising algorithm holds the greedy witness
// the kernel was pruned against.
type printer struct {
	w       io.Writer
	kern    *reduce.Kernel // nil without -reduce
	witness []int          // greedy witness in original ids, nil for qtkp
}

// answer maps a solver's set to the one to print: lifted to original
// ids, and replaced by the greedy witness when that is larger (the kernel
// keeps only plexes that beat it).
func (p printer) answer(set []int) []int {
	if p.kern != nil {
		set = p.kern.LiftSet(set)
	}
	if len(set) < len(p.witness) {
		return p.witness
	}
	return set
}

// solution prints one answer line. format's first two verbs take the
// size and the 1-based members of answer(set), so the two always agree;
// extra fills the rest.
func (p printer) solution(format string, set []int, extra ...any) {
	set = p.answer(set)
	fmt.Fprintf(p.w, format, append([]any{len(set), oneBased(set)}, extra...)...)
}

// oneBased renders a vertex set with the paper's 1-based labels.
func oneBased(set []int) []int {
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = v + 1
	}
	return out
}
