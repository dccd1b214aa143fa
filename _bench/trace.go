package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fastoracle"
	"repro/internal/kplex"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/qubo"
	"repro/internal/reduce"
)

// layerMetrics are the per-layer metrics of the traced run, with units.
// A layer that does not run on a workload reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"api.decode_ms", "ms"}, {"api.encode_ms", "ms"}, {"api.request_kb", "KiB"},
	{"graph.build_ms", "ms"}, {"graph.dense_mb", "MB"},
	{"canon.canonical_ms", "ms"}, {"canon.rounds", "count"}, {"canon.discrete_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"}, {"server.overhead_ms", "ms"},
	{"kplex.greedy_ms", "ms"}, {"kplex.greedy_size", "count"}, {"kplex.bb_ms", "ms"},
	{"reduce.kernelize_ms", "ms"}, {"reduce.degeneracy_ms", "ms"}, {"reduce.peeled_ratio", "ratio"},
	{"reduce.kernel_n", "count"}, {"reduce.components", "count"},
	{"fastoracle.bb_ms", "ms"}, {"fastoracle.bb_nodes", "count"}, {"fastoracle.store_ms", "ms"},
	{"oracle.build_ms", "ms"}, {"oracle.gates", "count"},
	{"core.qmkp_ms", "ms"}, {"grover.self_ms", "ms"}, {"core.probes", "count"},
	{"core.oracle_calls", "count"}, {"core.first_feasible_gate_share", "ratio"},
	{"qubo.formulate_ms", "ms"}, {"qubo.variables", "count"}, {"anneal.sa_ms", "ms"}, {"anneal.valid_ratio", "ratio"},
	{"trace.coverage", "ratio"}, {"trace.overhead_ms", "ms"},
}

// spanTimes maps a span name to the metrics its times feed: the self
// time (duration minus its children's) and the whole call. Several
// spans of one name in a request add up.
var spanTimes = map[string]struct{ self, whole string }{
	"api.decode":             {self: "api.decode_ms"},
	"api.encode":             {self: "api.encode_ms"},
	"graph.build":            {self: "graph.build_ms"},
	"canon.canonical":        {self: "canon.canonical_ms"},
	"kplex.Greedy":           {self: "kplex.greedy_ms"},
	"kplex.BBOpt":            {self: "fastoracle.bb_ms", whole: "kplex.bb_ms"},
	"reduce.Kernelize":       {self: "reduce.kernelize_ms"},
	"reduce.DegeneracyOrder": {self: "reduce.degeneracy_ms"},
	"fastoracle.NewStore":    {self: "fastoracle.store_ms"},
	"oracle.BuildOpts":       {self: "oracle.build_ms"},
	"core.SolveMKP":          {self: "grover.self_ms", whole: "core.qmkp_ms"},
	"qubo.FormulateMKP":      {self: "qubo.formulate_ms"},
	"core.SolveAnneal":       {self: "anneal.sa_ms"},
}

// span is one timed call of the traced replay. A call that contains
// another layer is followed by that layer's own call on the same input,
// recorded as its child; the parent's self time is the difference.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a request's root
	Req    int                `json:"req"`    // index of the replayed sample
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the replay began
	End    int64              `json:"end_ns"`
	Book   int64              `json:"bookkeeping_ns"` // spent in begin and end outside [Start, End]
	Work   map[string]float64 `json:"work,omitempty"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	metrics *obs.Metrics // the replayed solves' counters, as the daemon keeps them
}

// begin and end time their own bookkeeping, which is the tracing
// overhead: the part of it inside a request's root span is time the
// untraced daemon does not spend.
func (t *tracer) begin(name string, parent, req int) int {
	in := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	s.Book = s.Start - in
	return s.ID
}

func (t *tracer) end(id int, work map[string]float64) {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Work = work
	s.Book += int64(time.Since(t.t0)) - s.End
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// replayed is the work one replayed request did, compared against the
// daemon's answer and counters.
type replayed struct {
	size, nodes, gates, calls, probes int64
	valid                             bool
}

// traceRun replays every answered request of the timed phase through
// the layers' public functions on one proc, folds the spans into the
// per-layer metrics and writes the spans out.
func traceRun(cfg config, wl *workload, m *measurement) (map[string]metric, error) {
	procs := runtime.GOMAXPROCS(1)
	workers := parallel.SetWorkers(1)
	defer func() {
		runtime.GOMAXPROCS(procs)
		parallel.SetWorkers(workers)
	}()
	t := &tracer{spans: make([]span, 0, 16*len(m.samples)), metrics: obs.NewMetrics()}
	var done []int // sample indices replayed
	t.t0 = time.Now()
	for i, a := range m.answers {
		if a.err != nil {
			continue
		}
		r, err := replay(t, i, m.reqs[m.samples[i].req].body, a.res)
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", m.samples[i].req, err)
		}
		done = append(done, i)
		m.compare(i, r, a.res)
	}
	if m.failed == 0 {
		// The replayed solves report into their own registry exactly the
		// work counts (nodes, peeled and kernel vertices, probes, gates,
		// oracle calls, ...) the daemon's solves added to its own.
		counters, _ := t.metrics.Snapshot()
		for name, v := range counters {
			if m.vars[name] != v {
				m.problem("the daemon counted %s=%d over the timed phase, the replay %d", name, m.vars[name], v)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: checked %d work counters of the replay against the daemon's\n", len(counters))
	}
	if err := writeSpans(filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, cfg.seed)), t.spans); err != nil {
		return nil, err
	}
	return m.fold(t.spans, done), nil
}

// compare flags a replay whose deterministic work differs from the
// daemon's answer to the same request.
func (m *measurement) compare(i int, r replayed, res *api.SolveResult) {
	if res.Cached {
		return
	}
	want := replayed{size: int64(res.Size), nodes: res.Nodes, gates: res.Gates, calls: int64(res.OracleCalls),
		probes: int64(len(res.Progress)), valid: res.Valid != nil && *res.Valid}
	if r != want {
		m.problem("request %d: replay did %+v, the daemon reported %+v", m.samples[i].req, r, want)
	}
}

// replay runs one request's layers, as the daemon would on a cache miss
// (a cache hit runs no solver), and encodes the daemon's reply.
func replay(t *tracer, i int, body []byte, reply *api.SolveResult) (replayed, error) {
	root := t.begin("request", -1, i)
	sp := t.begin("api.decode", root, i)
	req, err := api.DecodeSolveRequest(bytes.NewReader(body))
	t.end(sp, map[string]float64{"api.request_kb": float64(len(body)) / 1024})
	if err != nil {
		return replayed{}, err
	}
	sp = t.begin("graph.build", root, i)
	g, err := req.Graph.Build()
	t.end(sp, map[string]float64{"graph.dense_mb": float64(req.Graph.N) * float64(req.Graph.N) / 8 / 1e6})
	if err != nil {
		return replayed{}, err
	}
	sp = t.begin("canon.canonical", root, i)
	form := canon.Canonical(g)
	t.end(sp, map[string]float64{"canon.rounds": float64(form.Rounds), "canon.discrete_ratio": indicator(form.Discrete())})

	// The daemon runs every solve with a fresh trace recorder and its
	// metrics registry; so does the replay, so the layers do the same work.
	ob := obs.Obs{Trace: obs.NewTrace(obs.NewRecorder()), Metrics: t.metrics}
	var r replayed
	ctx := context.Background()
	switch {
	case reply.Cached:
	case req.Algo == api.AlgoBB:
		sp = t.begin("kplex.BBOpt", root, i)
		res, err := kplex.BBOpt(ctx, g, req.K, kplex.BBOptions{Obs: ob})
		t.end(sp, map[string]float64{"fastoracle.bb_nodes": float64(res.Nodes)})
		if err != nil {
			return r, err
		}
		c := t.begin("kplex.Greedy", sp, i)
		lb := kplex.Greedy(g, req.K)
		t.end(c, map[string]float64{"kplex.greedy_size": float64(len(lb))})
		c = t.begin("reduce.Kernelize", sp, i)
		kern := reduce.Kernelize(g, req.K, len(lb))
		st := kern.Stats
		t.end(c, map[string]float64{"reduce.peeled_ratio": float64(st.Peeled) / float64(st.N0),
			"reduce.kernel_n": float64(st.N), "reduce.components": float64(st.Components)})
		gc := t.begin("reduce.DegeneracyOrder", c, i)
		reduce.DegeneracyOrder(kern.Sub)
		t.end(gc, nil)
		r = replayed{size: int64(res.Size), nodes: res.Nodes}
	case req.Algo == api.AlgoQMKP:
		// The dispatcher's qMKP configuration: classical bounds on, the
		// request seed driving the measurements.
		sp = t.begin("core.SolveMKP", root, i)
		res, err := core.SolveMKP(ctx, g, core.Spec{Algo: core.AlgoMKP, K: req.K, Obs: ob,
			Gate: &core.GateOptions{Rng: rand.New(rand.NewSource(req.Seed)), UseClassicalBounds: true}})
		work := map[string]float64{"core.probes": float64(len(res.Progress)), "core.oracle_calls": float64(res.OracleCalls)}
		if res.FirstFeasible != nil && res.Gates > 0 {
			work["core.first_feasible_gate_share"] = float64(res.FirstFeasible.CumGates) / float64(res.Gates)
		}
		t.end(sp, work)
		if err != nil {
			return r, err
		}
		c := t.begin("kplex.Greedy", sp, i)
		lb := kplex.Greedy(g, req.K)
		t.end(c, map[string]float64{"kplex.greedy_size": float64(len(lb))})
		c = t.begin("kplex.UpperBound", sp, i)
		kplex.UpperBound(g, req.K)
		t.end(c, nil)
		c = t.begin("kplex.Greedy", sp, i) // the seed witness, computed again
		kplex.Greedy(g, req.K)
		t.end(c, nil)
		c = t.begin("fastoracle.NewStore", sp, i)
		_, err = fastoracle.NewStore(g, req.K)
		t.end(c, nil)
		if err != nil {
			return r, err
		}
		for _, p := range res.Progress {
			c = t.begin("oracle.BuildOpts", sp, i)
			orc, err := oracle.BuildOpts(g, req.K, p.T, oracle.Options{FastPath: true})
			if err != nil {
				return r, err
			}
			t.end(c, map[string]float64{"oracle.gates": float64(orc.TotalGates())})
		}
		r = replayed{size: int64(res.Size), gates: res.Gates, calls: int64(res.OracleCalls), probes: int64(len(res.Progress))}
	case req.Algo == api.AlgoQAMKP:
		p := req.Anneal
		sp = t.begin("core.SolveAnneal", root, i)
		res, err := core.SolveAnneal(ctx, g, core.Spec{Algo: core.AlgoAnneal, K: req.K, Obs: ob,
			Anneal: &core.AnnealOptions{R: p.R, Shots: p.Shots, DeltaT: p.DeltaT, Seed: req.Seed}})
		t.end(sp, map[string]float64{"anneal.valid_ratio": indicator(res.Valid)})
		if err != nil {
			return r, err
		}
		c := t.begin("qubo.FormulateMKP", sp, i)
		enc, err := qubo.FormulateMKP(g, req.K, p.R)
		if err != nil {
			return r, err
		}
		t.end(c, map[string]float64{"qubo.variables": float64(enc.Model.N())})
		r = replayed{size: int64(res.Size), valid: res.Valid}
	default:
		return r, fmt.Errorf("no replay for algorithm %q", req.Algo)
	}

	sp = t.begin("api.encode", root, i)
	_, err = json.Marshal(reply)
	t.end(sp, nil)
	t.end(root, nil)
	return r, err
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fold turns the spans into the per-layer metrics: per request, each
// layer's time and work; across requests, the median where the layer
// ran (the mean for ratios). It prints the layer table to stderr.
func (m *measurement) fold(spans []span, done []int) map[string]metric {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	perReq := make(map[int]map[string]float64, len(done))
	book := map[int]float64{}         // request -> bookkeeping ms inside its root span
	selfTotal := map[string]float64{} // span name -> summed self ms
	var traced, untraced float64
	var overhead []float64
	for _, s := range spans {
		vals := perReq[s.Req]
		if vals == nil {
			vals = map[string]float64{}
			perReq[s.Req] = vals
		}
		self := s.dur()
		for _, c := range children[s.ID] {
			self -= spans[c].dur()
		}
		if s.Parent < 0 {
			lat := float64(m.samples[s.Req].latency) / float64(time.Millisecond)
			layers := s.dur() - self // the calls under the root
			traced += layers
			untraced += lat
			overhead = append(overhead, lat-layers)
			continue
		}
		book[s.Req] += float64(s.Book) / float64(time.Millisecond)
		selfTotal[s.Name] += self
		if f, ok := spanTimes[s.Name]; ok {
			vals[f.self] += self
			if f.whole != "" {
				vals[f.whole] += s.dur()
			}
		}
		for key, v := range s.Work {
			vals[key] += v
		}
	}

	out := map[string]metric{}
	for _, lm := range layerMetrics {
		var xs []float64
		for _, i := range done {
			if v, ok := perReq[i][lm.name]; ok {
				xs = append(xs, v)
			}
		}
		v := quantile(xs, 0.5)
		if strings.HasSuffix(lm.name, "_ratio") {
			v = mean(xs)
		}
		out[lm.name] = metric{v, lm.unit}
	}
	if hits, misses := m.vars["server.cache.hits"], m.vars["server.cache.misses"]; hits+misses > 0 {
		out["server.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	}
	out["server.overhead_ms"] = metric{quantile(overhead, 0.5), "ms"}
	books := make([]float64, 0, len(book))
	for _, b := range book {
		books = append(books, b)
	}
	out["trace.overhead_ms"] = metric{quantile(books, 0.5), "ms"}
	if untraced > 0 {
		out["trace.coverage"] = metric{traced / untraced, "ratio"}
	}

	names := make([]string, 0, len(selfTotal))
	for name := range selfTotal {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return selfTotal[names[a]] > selfTotal[names[b]] })
	fmt.Fprintf(os.Stderr, "bench: traced %d requests; layer self time as a share of untraced latency:\n", len(done))
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %9.1f ms  %5.1f%%\n", name, selfTotal[name], 100*selfTotal[name]/untraced)
	}
	fmt.Fprintf(os.Stderr, "  %-24s %9.1f ms  %5.1f%%\n", "(not traced)", untraced-traced, 100*(untraced-traced)/untraced)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
