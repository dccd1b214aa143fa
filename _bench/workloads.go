package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// The request streams of one seed. Each request draws from its own
// generator, seeded from (seed, stream, index), so any request can be
// regenerated alone and generation can fan out without changing inputs.
const (
	streamTimed  = 1
	streamWarmup = 2
	streamPool   = 3
)

// relabelRing is the length of the pre-encoded exact-relabel stream. A
// cache hit costs about a millisecond, so a run of fresh relabellings
// would need tens of megabytes of request bodies; past the ring the
// client cycles, which the daemon cannot tell apart from fresh
// relabellings (nothing below the canonical form is keyed on request
// bytes).
const relabelRing = 4096

// request is one pre-encoded solve request and what the checks need to
// judge its answer.
type request struct {
	body []byte
	algo string
	n    int // vertex count
	pool int // exact-relabel: index of the pool instance relabelled, else -1
}

// sizes holds the instance shapes of one scale. The smoke test runs the
// tiny scale; the benchmark runs the full one.
type sizes struct {
	coldN, relabelN, sparseN [2]int // vertex-count ranges [lo, hi]
	pool                     int    // exact-relabel pool instances
	plant                    int    // exact-sparse planted plex size
	qmkpN, qmkpM             int    // quantum-paper qMKP shape
	qaN, qaM                 int    // quantum-paper qaMKP shape
	setups                   int    // set-ups per run (setup_s is their median)
}

var fullSizes = sizes{
	coldN: [2]int{115, 125}, relabelN: [2]int{145, 155}, sparseN: [2]int{1000, 1100},
	pool: 16, plant: 20, qmkpN: 14, qmkpM: 45, qaN: 10, qaM: 40, setups: 9,
}

var tinySizes = sizes{
	coldN: [2]int{30, 34}, relabelN: [2]int{40, 44}, sparseN: [2]int{150, 160},
	pool: 3, plant: 10, qmkpN: 8, qmkpM: 16, qaN: 6, qaM: 10, setups: 2,
}

// workload is one traffic mix. warmup is the number of set-up requests
// (exact-relabel warms up on its pool instead).
type workload struct {
	name   string
	warmup int
	// gen builds request i of a stream; exact-relabel returns only the
	// pool instance to relabel.
	gen func(sz sizes, rng *rand.Rand, i int) (req *api.SolveRequest, pool int)
	// reference returns the maximum k-plex size of g from an engine
	// independent of the one the daemon runs.
	reference func(g *graph.Graph, k int) (int, error)
	// approx marks answers that may fall below the reference: qMKP is
	// probabilistic and qaMKP a heuristic.
	approx bool
	// hostShare is the power of the reference loop's slowdown that the
	// workload's times follow when the host's speed changes (see
	// calibrate.go): the slope of log time on log loop time over
	// 15-second runs on the two-vCPU host, rounded.
	hostShare float64
}

const k = 2

var workloads = map[string]*workload{
	// Every request a fresh G(n, 4n): each one misses the cache and
	// writes a new entry; branch-and-bound search dominates.
	"exact-cold": {
		name: "exact-cold", warmup: 8, hostShare: 0.6,
		gen: func(sz sizes, rng *rand.Rand, _ int) (*api.SolveRequest, int) {
			n := between(rng, sz.coldN)
			return bbRequest(graph.Gnm(n, 4*n, rng.Int63())), -1
		},
		reference: bsSize,
	},
	// Random relabellings of a fixed pool solved during set-up: every
	// request is a verified cache hit and no search runs.
	"exact-relabel": {
		name: "exact-relabel", hostShare: 1,
		gen: func(sz sizes, rng *rand.Rand, _ int) (*api.SolveRequest, int) {
			return nil, rng.Intn(sz.pool) // the caller relabels pool[j]
		},
		reference: bsSize,
	},
	// A planted 20-vertex 2-plex in a sparse graph of about 1000
	// vertices: the kernel peels everything, so the cost is the O(n²)
	// work before the search.
	"exact-sparse": {
		name: "exact-sparse", warmup: 3, hostShare: 1,
		gen: func(sz sizes, rng *rand.Rand, _ int) (*api.SolveRequest, int) {
			n := between(rng, sz.sparseN)
			g, _ := graph.PlantedKPlex(n, sz.plant, k, 5/float64(n-1), rng.Int63())
			return bbRequest(relabel(g, rng.Perm(n))), -1
		},
		// The bound equals the plant size, so it certifies the optimum.
		reference: func(g *graph.Graph, k int) (int, error) { return kplex.UpperBound(g, k), nil },
	},
	// The paper's two algorithms: three qMKP requests on G(14, 45) to
	// one qaMKP request on G(10, 40), which puts the median among qMKP
	// latencies, away from the seam with the slower qaMKP requests.
	"quantum-paper": {
		name: "quantum-paper", warmup: 4, hostShare: 0.5,
		gen: func(sz sizes, rng *rand.Rand, i int) (*api.SolveRequest, int) {
			seed := 1 + rng.Int63n(1<<31)
			if i%4 == 3 {
				return &api.SolveRequest{V: api.Version, Algo: api.AlgoQAMKP, K: k, Seed: seed,
					Graph:  api.FromGraph(graph.Gnm(sz.qaN, sz.qaM, rng.Int63())),
					Anneal: &api.AnnealParams{R: 2, Shots: 200, DeltaT: 5}}, -1
			}
			return &api.SolveRequest{V: api.Version, Algo: api.AlgoQMKP, K: k, Seed: seed,
				Graph: api.FromGraph(graph.Gnm(sz.qmkpN, sz.qmkpM, rng.Int63()))}, -1
		},
		reference: func(g *graph.Graph, k int) (int, error) {
			r, err := kplex.Naive(g, k)
			return r.Size, err
		},
		approx: true,
	},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"exact-cold", "exact-relabel", "exact-sparse", "quantum-paper"}

func bsSize(g *graph.Graph, k int) (int, error) {
	r, err := kplex.BS(g, k)
	return r.Size, err
}

func bbRequest(g *graph.Graph) *api.SolveRequest {
	return &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: k, Graph: api.FromGraph(g)}
}

func between(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

// streamRand returns the generator of request i of a stream.
func streamRand(seed int64, stream, i int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// relabel returns g with vertex v renamed perm[v].
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(perm[e[0]], perm[e[1]])
	}
	return out
}

// hasTwins reports whether two vertices have the same neighbours apart
// from each other. Swapping twins is an automorphism that no colour
// refinement can break, so a pool instance with twins could not be
// recognised under relabelling; the pool skips such graphs.
func hasTwins(g *graph.Graph) bool {
	n := g.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.Degree(u) != g.Degree(v) {
				continue
			}
			same := true
			for w := 0; w < n && same; w++ {
				if w != u && w != v && g.HasEdge(u, w) != g.HasEdge(v, w) {
					same = false
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}

// relabelPool draws the exact-relabel pool: twin-free G(n, 4n) graphs.
func relabelPool(sz sizes, seed int64) []*graph.Graph {
	pool := make([]*graph.Graph, sz.pool)
	for j := range pool {
		rng := streamRand(seed, streamPool, j)
		for {
			n := between(rng, sz.relabelN)
			if g := graph.Gnm(n, 4*n, rng.Int63()); !hasTwins(g) {
				pool[j] = g
				break
			}
		}
	}
	return pool
}

// encode marshals a request body.
func encode(req *api.SolveRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a generated request: %v", err))
	}
	return b
}

// generate builds and encodes requests [0, count) of a stream; the
// result depends only on (seed, stream, index).
func generate(wl *workload, sz sizes, seed int64, stream, count int, pool []*graph.Graph) []request {
	out := make([]request, count)
	_ = forEach(count, func(i int) error {
		rng := streamRand(seed, stream, i)
		req, j := wl.gen(sz, rng, i)
		if req == nil {
			req = bbRequest(relabel(pool[j], rng.Perm(pool[j].N())))
		}
		out[i] = request{body: encode(req), algo: req.Algo, n: req.Graph.N, pool: j}
		return nil
	})
	return out
}
