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
//	qmkp -algo bb    -k 2 -gen 40,120 -json-out -
//	qmkp -json-in request.json -json-out -
//
// Input is either -graph (a DIMACS-style p/e file — .clq/.col headers
// included — or a SNAP-style .snap/.edges list; see internal/graph),
// -gen n,m (a seeded random graph) or -dataset (a named paper dataset).
//
// The command is a client of the solver daemon's dispatcher: it builds
// one api.SolveRequest, from its flags or from the -json-in document
// ("-" = stdin), and runs qmkp, qtkp, qamkp, bb and greedy through
// server.Execute exactly as the daemon does (qmkp with classical
// bounds, the wire's defaults). The CLI-only baselines bs, naive, tabu
// and qnclub fill the same api.SolveResult. -json-out writes it as the
// daemon's JSON ("-" = stdout, the default under -json-in); otherwise
// it is printed as text, with a "solution: size N, set [...]" line.
//
// Runs are cancellable: -timeout (and a request's timeout_ms) bounds the
// solve, and an interrupt (Ctrl-C) stops it at the next
// probe/try/shot/wave boundary; either way the best solution found so
// far is reported before exiting. Exit codes distinguish failure
// classes (the table lives in internal/api, shared with the daemon's
// HTTP status mapping):
//
//	0  solved
//	1  input/runtime error
//	2  bad request (core.ErrBadSpec: empty graph, k, T or -gen out of range, R ≤ 1, unknown sampler)
//	3  instance too large (core.ErrTooLarge: past the gate simulator's, naive's or qnclub's cap)
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
	"repro/internal/obs"
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
// (or the -json-out "-" document) to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qmkp", flag.ExitOnError)
	var (
		algo    = fs.String("algo", "qmkp", "algorithm: qmkp | qtkp | qamkp | bb | greedy (the daemon's) | bs | naive | tabu | qnclub (CLI only)")
		k       = fs.Int("k", 2, "k-plex parameter")
		clubL   = fs.Int("club", 2, "qnclub: diameter bound n of the n-club")
		tSize   = fs.Int("T", 0, "size threshold (qtkp only)")
		file    = fs.String("graph", "", "edge-list file (p/e format, 1-based vertices)")
		gen     = fs.String("gen", "", "generate a random graph: n,m")
		dataset = fs.String("dataset", "", "named paper dataset, e.g. 'G_{10,23}'")
		seed    = fs.Int64("seed", api.DefaultSeed, "random seed of -gen and of the randomized algorithms (0 runs them under the default)")
		shots   = fs.Int("shots", api.DefaultShots, "qaMKP: number of anneals")
		deltaT  = fs.Int("deltat", api.DefaultDeltaT, "qaMKP: sweeps per anneal (µs analogue)")
		rPen    = fs.Float64("R", api.DefaultR, "qaMKP: penalty weight (must be > 1)")
		coPrune = fs.Bool("reduce", false, "apply core-truss co-pruning before solving (k-plex algorithms; answers stay in input ids)")
		workers = fs.Int("workers", 0, "worker count for parallel phases (0 = keep REPRO_WORKERS / NumCPU default); results are identical at any value")

		jsonIn  = fs.String("json-in", "", "read one api.SolveRequest (wire schema v1) from this file ('-' = stdin) instead of the flag-based input")
		jsonOut = fs.String("json-out", "", "write the api.SolveResult JSON here ('-' = stdout; the default under -json-in) instead of text")

		timeout    = fs.Duration("timeout", 0, "cancel the solve after this duration (0 = none); the best solution so far is still reported")
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

	var req *api.SolveRequest
	var g *graph.Graph
	if *jsonIn != "" {
		req, g, err = readRequest(*jsonIn)
	} else {
		req = &api.SolveRequest{V: api.Version, Algo: *algo, K: *k, T: *tSize, Seed: *seed,
			Anneal: &api.AnnealParams{R: *rPen, Shots: *shots, DeltaT: *deltaT}}
		if err = req.Check(func(a string) bool { return api.KnownAlgo(a) || cliOnly[a] }); err == nil {
			g, err = loadGraph(*file, *gen, *dataset, *seed)
		}
	}
	if err != nil {
		return err
	}
	if *coPrune && req.Algo == "qnclub" {
		return fmt.Errorf("-reduce preserves k-plexes, not n-clubs: %w", core.ErrBadSpec)
	}
	jsonPath, text := *jsonOut, w
	if jsonPath == "" && *jsonIn != "" {
		jsonPath = "-"
	}
	if jsonPath != "" {
		text = io.Discard
	}
	fmt.Fprintf(text, "input: %v, k=%d\n", g, req.K)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	for _, d := range []time.Duration{*timeout, time.Duration(req.TimeoutMS) * time.Millisecond} {
		if d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}

	res, err := solve(ctx, req, g, *coPrune, *clubL, sink.Obs, text)
	if res == nil {
		res = &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	}
	res.SetError(err)
	if jsonPath == "" {
		render(w, req.T, res)
	} else if werr := writeJSON(w, jsonPath, res); werr != nil {
		return werr
	}
	return err
}

// cliOnly names the baselines this command runs itself (solveLocal)
// instead of through server.Execute. They stay off the wire: bs and
// tabu ignore cancellation, so the daemon could not keep its deadline
// contract for them.
var cliOnly = map[string]bool{"bs": true, "naive": true, "tabu": true, "qnclub": true}

// solve runs req on g, first co-pruned when coPrune is set (the kernel
// report goes to text). Under co-pruning the answer is lifted back to
// g's ids, and the greedy witness the kernel was pruned against stands
// when it is larger: the kernel keeps only plexes that beat it. A k or
// T that the solver would refuse on g is refused before co-pruning, so
// the kernel never answers what g could not be asked.
func solve(ctx context.Context, req *api.SolveRequest, g *graph.Graph, coPrune bool, clubL int, ob obs.Obs, text io.Writer) (*api.SolveResult, error) {
	var witness []int
	lift := func(set []int) []int { return set }
	if coPrune {
		if err := core.CheckRange(g, core.Algo(req.Algo), req.K, req.T); err != nil {
			return nil, err
		}
		q := req.T
		if req.Algo != api.AlgoQTKP {
			witness = kplex.Greedy(g, req.K)
			q = len(witness) + 1
		}
		kern := reduce.CoTruss(g, req.K, q)
		fmt.Fprintf(text, "reduction: removed %d vertices, keeping every %d-plex of size ≥ %d\n", kern.Stats.Peeled, req.K, q)
		if kern.Sub.N() < q {
			// Nothing the kernel holds can be the answer: qtkp's target
			// is verifiably absent, and the witness is optimal.
			res := &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
			if req.Algo == api.AlgoQTKP {
				return res, fmt.Errorf("co-pruning left %d vertices: %w", kern.Sub.N(), core.ErrInfeasible)
			}
			keepWitness(res, witness)
			return res, nil
		}
		g = kern.Sub
		lift = func(set []int) []int { return api.OneBased(kern.LiftSet(api.ZeroBased(set))) }
	}
	var res *api.SolveResult
	var err error
	if cliOnly[req.Algo] {
		res, err = solveLocal(req, g, clubL)
	} else {
		res, err = server.Execute(ctx, req, g, ob)
	}
	if res != nil && (err == nil || errors.Is(err, core.ErrCanceled)) {
		res.RemapSets(lift)
		keepWitness(res, witness)
	}
	return res, err
}

// keepWitness puts witness in place of res's answer when it is larger.
func keepWitness(res *api.SolveResult, witness []int) {
	if res.Size < len(witness) {
		res.Size, res.Set, res.Found = len(witness), api.OneBased(witness), true
		if res.Valid != nil {
			valid := true
			res.Valid = &valid
		}
	}
}

// solveLocal runs one CLI-only baseline and fills the wire result the
// daemon's algorithms fill. The exhaustive ones refuse instances past
// their 2^n sweeps with core.ErrTooLarge before allocating anything.
func solveLocal(req *api.SolveRequest, g *graph.Graph, clubL int) (*api.SolveResult, error) {
	if maxN := map[string]int{"naive": kplex.NaiveMaxVertices, "qnclub": core.MaxGateVertices}[req.Algo]; maxN > 0 && g.N() > maxN {
		return nil, fmt.Errorf("%s needs n ≤ %d, got n=%d: %w", req.Algo, maxN, g.N(), core.ErrTooLarge)
	}
	out := &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	var set []int
	switch req.Algo {
	case "bs", "naive":
		run := kplex.BS
		if req.Algo == "naive" {
			run = kplex.Naive
		}
		res, err := run(g, req.K)
		if err != nil {
			return nil, err
		}
		set, out.Nodes = res.Set, res.Nodes
	case "tabu":
		set = kplex.TabuSearch(g, req.K, req.EffectiveSeed())
	case "qnclub":
		res, err := club.QMaxClub(g, clubL, rand.New(rand.NewSource(req.EffectiveSeed())))
		if err != nil {
			return nil, err
		}
		set, out.OracleCalls = res.Set, int(res.Nodes)
	}
	out.Size, out.Set, out.Found = len(set), api.OneBased(set), len(set) > 0
	return out, nil
}

// render prints a result as text: one line per qMKP probe, then the
// answer line with whichever work counts the algorithm reports. t is
// the qtkp threshold, which the result does not carry. Errors other
// than cancellation and verified absence print nothing here; main
// reports them.
func render(w io.Writer, t int, res *api.SolveResult) {
	for _, p := range res.Progress {
		status := "no plex of that size"
		if p.Found {
			status = fmt.Sprintf("found size %d", p.Size)
		}
		fmt.Fprintf(w, "  probe T=%-3d %-22s cum. gates %d\n", p.T, status, p.CumGates)
	}
	switch res.ErrorKind {
	case "":
		fmt.Fprintf(w, "solution: size %d, set %v", res.Size, res.Set)
	case api.KindCanceled:
		fmt.Fprintf(w, "canceled: best so far size %d, set %v", res.Size, res.Set)
	case api.KindInfeasible:
		fmt.Fprintf(w, "no %d-plex of size ≥ %d exists (verified absence)", res.K, t)
	default:
		return
	}
	if res.Valid != nil {
		fmt.Fprintf(w, ", valid k-plex: %v", *res.Valid)
	}
	if res.Nodes > 0 {
		fmt.Fprintf(w, ", %d nodes expanded", res.Nodes)
	}
	if res.OracleCalls > 0 {
		fmt.Fprintf(w, ", %d oracle calls", res.OracleCalls)
	}
	if res.Gates > 0 {
		fmt.Fprintf(w, ", %d gates, modelled QPU %v, error prob %.2e", res.Gates, time.Duration(res.QPUTimeNS), res.ErrorProbability)
	}
	fmt.Fprintln(w)
}

// writeJSON writes res as the daemon's JSON document to path ("-" = w).
func writeJSON(w io.Writer, path string, res *api.SolveResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = w.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readRequest decodes the -json-in document ("-" = stdin) and builds
// its graph.
func readRequest(path string) (*api.SolveRequest, *graph.Graph, error) {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		src = f
	}
	req, err := api.DecodeSolveRequest(src)
	if err != nil {
		return nil, nil, err
	}
	g, err := req.Graph.Build()
	return req, g, err
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
