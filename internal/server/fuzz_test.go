package server

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// fuzzAlgos are the wire algorithms FuzzExecute picks from.
var fuzzAlgos = []string{api.AlgoQMKP, api.AlgoQTKP, api.AlgoQAMKP, api.AlgoBB, api.AlgoGreedy}

// fuzzRequest decodes one FuzzExecute input into a wire request: the
// algorithm fuzzAlgos[algo%5], n = nb%11 vertices (0 is the empty graph
// Build refuses), an edge {u, v} for every set bit of pairs at the index
// of the pair u < v in lexicographic order, and k and t in -1..11, so
// the inputs cover the out-of-range values on both sides of 1..n. ab sets
// the qaMKP knobs: r in {default, 0.5, …, 3.5} (r ≤ 1 is refused), 1–8
// shots of 1–4 sweeps, so an anneal costs about as much as the other
// algorithms instead of the default 200 shots.
func fuzzRequest(algo, nb uint8, pairs uint64, kb, tb, ab uint8, seed int64) *api.SolveRequest {
	n := int(nb % 11)
	var edges [][2]int
	bit := 0
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if pairs&(1<<uint(bit)) != 0 {
				edges = append(edges, [2]int{u, v})
			}
			bit++
		}
	}
	return &api.SolveRequest{
		V:     api.Version,
		Algo:  fuzzAlgos[int(algo)%len(fuzzAlgos)],
		K:     int(kb%13) - 1,
		T:     int(tb%13) - 1,
		Seed:  seed,
		Graph: api.Graph{N: n, Edges: edges},
		Anneal: &api.AnnealParams{
			R:      float64(ab%8) / 2,
			Shots:  1 + int(ab>>3)%8,
			DeltaT: 1 + int(ab>>6),
		},
	}
}

// pairBits is fuzzRequest's edge encoding of g (n ≤ 10).
func pairBits(g *graph.Graph) uint64 {
	var pairs uint64
	bit := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) {
				pairs |= 1 << uint(bit)
			}
			bit++
		}
	}
	return pairs
}

// checkTyped fails unless err maps to a typed HTTP status: every bad
// input is the client's fault or a size cap, never a 500.
func checkTyped(t *testing.T, req *api.SolveRequest, err error) {
	t.Helper()
	if st := api.HTTPStatus(err); st == http.StatusInternalServerError {
		t.Fatalf("%s k=%d t=%d n=%d: untyped error (HTTP %d): %v", req.Algo, req.K, req.T, req.Graph.N, st, err)
	}
}

// FuzzExecute runs the dispatcher the way the daemon does (Check, Build,
// Execute) on random graphs of at most 10 vertices, every wire algorithm
// and random k, t, seed and qaMKP knobs. Nothing may panic, every error must map to a
// typed status, every answer must be a k-plex of its reported size
// (unless qaMKP marks it invalid), and bb must find kplex.BS's optimum —
// an engine that shares no code with bb's.
func FuzzExecute(f *testing.F) {
	ex := pairBits(graph.Example6())
	for i := range fuzzAlgos {
		f.Add(uint8(i), uint8(6), ex, uint8(3), uint8(5), uint8(0x7c), int64(1)) // k=2, t=4, r=2, 8 shots of 2 sweeps
	}
	for _, c := range []struct {
		algo, n uint8
		pairs   uint64
		k, t, a uint8
		seed    int64
	}{
		{3, 0, 0, 3, 0, 0, 0},                 // empty graph
		{3, 6, ex, 1, 0, 0, 0},                // k=0
		{1, 6, ex, 3, 1, 0, 0},                // qtkp t=0
		{1, 6, ex, 3, 9, 0, 7},                // qtkp t>n
		{1, 6, ex, 3, 6, 0, 7},                // qtkp with no plex of size t
		{0, 6, ex, 9, 0, 0, 2},                // qmkp k>n
		{2, 4, ex, 12, 0, 0, 3},               // qamkp k>n
		{2, 6, ex, 3, 0, 2, 3},                // qamkp r=1
		{3, 5, 0, 12, 0, 0, 0},                // bb k>n on an edgeless graph
		{3, 10, ^uint64(0), 2, 0, 0, 0},       // bb on K10
		{3, 10, 0x5555_5555_5555, 3, 0, 0, 0}, // bb on a sparse 10-vertex graph
		{4, 1, 0, 2, 0, 0, 0},                 // greedy on one vertex
	} {
		f.Add(c.algo, c.n, c.pairs, c.k, c.t, c.a, c.seed)
	}
	f.Fuzz(func(t *testing.T, algo, nb uint8, pairs uint64, kb, tb, ab uint8, seed int64) {
		req := fuzzRequest(algo, nb, pairs, kb, tb, ab, seed)
		if err := req.Check(api.KnownAlgo); err != nil {
			checkTyped(t, req, err)
			return
		}
		g, err := req.Graph.Build()
		if err != nil {
			checkTyped(t, req, err)
			return
		}
		res, err := Execute(context.Background(), req, g, obs.Obs{})
		if err != nil {
			checkTyped(t, req, err)
		}
		if res == nil {
			if err == nil {
				t.Fatalf("%s k=%d: nil result without an error", req.Algo, req.K)
			}
			return
		}
		set := api.ZeroBased(res.Set)
		if res.Size != len(set) {
			t.Fatalf("%s k=%d: size %d but %d members %v", req.Algo, req.K, res.Size, len(set), res.Set)
		}
		for i, v := range set {
			if v < 0 || v >= g.N() {
				t.Fatalf("%s k=%d: member %d outside 1..%d", req.Algo, req.K, v+1, g.N())
			}
			for _, u := range set[:i] {
				if u == v {
					t.Fatalf("%s k=%d: member %d named twice", req.Algo, req.K, v+1)
				}
			}
		}
		if (res.Valid == nil || *res.Valid) && !g.IsKPlex(set, req.K) {
			t.Fatalf("%s k=%d: answer %v is not a %d-plex of %v", req.Algo, req.K, res.Set, req.K, req.Graph.Edges)
		}
		if req.Algo == api.AlgoBB && err == nil {
			want, berr := kplex.BS(g, req.K)
			if berr != nil {
				t.Fatalf("BS k=%d: %v", req.K, berr)
			}
			if res.Size != want.Size {
				t.Fatalf("bb k=%d on n=%d %v: size %d, BS says %d", req.K, g.N(), req.Graph.Edges, res.Size, want.Size)
			}
		}
	})
}
