// Package api defines the versioned wire schema shared by the solver
// daemon (cmd/qmkpd, internal/server) and the CLI (cmd/qmkp, which
// builds one SolveRequest from its flags or -json-in and can print the
// SolveResult with -json-out): SolveRequest in, SolveResult out, and the
// Event frames the streaming endpoint emits — all carrying an explicit
// `"v":1` version field and decoded strictly (unknown fields are errors,
// so schema drift between clients and servers fails loudly instead of
// silently dropping options). Check, the request defaults and RemapSets
// are shared by both front ends, so neither restates them.
//
// DecodeSolveRequest has two paths over one read of the body. A
// byte-level scanner (scan.go) decodes the subset of the schema that
// clients send (exact-case keys, plain integers, strings without
// escapes, an edge list of integer pairs) without reflection. Every other
// document goes to encoding/json, whose accepted set and error texts are
// the wire contract; it is also the reference the differential tests and
// FuzzDecodeSolveRequest hold the scanner to.
//
// It also owns the error taxonomy of the service boundary: the mapping
// from the typed core sentinels to CLI exit codes (formerly hard-coded
// in cmd/qmkp) and to HTTP status codes (status.go), so every surface
// classifies failures identically.
//
// Vertices on the wire are 1-based, matching the DIMACS instance files
// and the paper's v1..vn labelling; in-memory graphs are 0-based.
package api

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// Version is the wire schema version this package speaks. Requests and
// results carry it in the "v" field; decoding rejects anything else.
const Version = 1

// The algorithms the service boundary accepts. The gate-model
// algorithms are capped at core.MaxGateVertices; bb and greedy run at
// any vertex count.
const (
	AlgoQMKP   = "qmkp"   // binary-search Grover (paper Algorithm 3)
	AlgoQTKP   = "qtkp"   // threshold Grover probe (paper Algorithm 2)
	AlgoQAMKP  = "qamkp"  // QUBO annealing (paper Algorithm 4)
	AlgoBB     = "bb"     // exact kernelize-then-search branch-and-bound
	AlgoGreedy = "greedy" // greedy heuristic lower bound
)

// KnownAlgo reports whether algo names a solver the wire API dispatches.
func KnownAlgo(algo string) bool {
	switch algo {
	case AlgoQMKP, AlgoQTKP, AlgoQAMKP, AlgoBB, AlgoGreedy:
		return true
	}
	return false
}

// Graph is the wire form of an instance: vertex count plus a 1-based
// edge list. The strictness of the DIMACS reader carries over: edges
// must be in range, self-loops and duplicates are rejected.
type Graph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// Build validates the wire graph and converts it to the in-memory form.
// Violations wrap core.ErrBadSpec so they map to exit code 2 / HTTP 400.
func (wg Graph) Build() (*graph.Graph, error) {
	if wg.N < 1 {
		return nil, fmt.Errorf("api: graph needs n ≥ 1, got n=%d: %w", wg.N, core.ErrBadSpec)
	}
	g := graph.New(wg.N)
	for i, e := range wg.Edges {
		u, v := e[0], e[1]
		if u < 1 || u > wg.N || v < 1 || v > wg.N {
			return nil, fmt.Errorf("api: edge %d {%d,%d} out of range 1..%d: %w", i, u, v, wg.N, core.ErrBadSpec)
		}
		if u == v {
			return nil, fmt.Errorf("api: edge %d is a self-loop at %d: %w", i, u, core.ErrBadSpec)
		}
		if g.HasEdge(u-1, v-1) {
			return nil, fmt.Errorf("api: duplicate edge %d {%d,%d}: %w", i, u, v, core.ErrBadSpec)
		}
		g.AddEdge(u-1, v-1)
	}
	return g, nil
}

// FromGraph converts an in-memory graph to the wire form (edges sorted,
// 1-based — exactly the serialization graph.Write uses).
func FromGraph(g *graph.Graph) Graph {
	edges := g.Edges()
	out := Graph{N: g.N(), Edges: make([][2]int, len(edges))}
	for i, e := range edges {
		out.Edges[i] = [2]int{e[0] + 1, e[1] + 1}
	}
	return out
}

// AnnealParams carries the qaMKP knobs (consulted only for AlgoQAMKP).
// A zero field selects its Default* value.
type AnnealParams struct {
	R      float64 `json:"r,omitempty"`      // penalty weight (> 1)
	Shots  int     `json:"shots,omitempty"`  // anneals
	DeltaT int     `json:"deltat,omitempty"` // sweeps per anneal
}

// The values a request runs under when it leaves a field at zero. The
// daemon's normalization and cache key (through EffectiveSeed and
// EffectiveAnneal) and cmd/qmkp's flag defaults all read these.
const (
	DefaultSeed   = 1
	DefaultR      = 2.0
	DefaultShots  = 200
	DefaultDeltaT = 5
)

// The largest qaMKP budget a request may ask for; Check refuses more as
// too large. They cover every budget the experiments and examples run
// (at most 10 000 shots, Δt ≤ 200).
const (
	MaxShots  = 10_000
	MaxDeltaT = 1_000
)

// SolveRequest is one solve job. Exactly the fields relevant to Algo
// are consulted: K everywhere, T for qtkp, Anneal for qamkp, Seed for
// the randomized algorithms.
type SolveRequest struct {
	V     int    `json:"v"`
	Algo  string `json:"algo"`
	K     int    `json:"k"`
	T     int    `json:"t,omitempty"`
	Graph Graph  `json:"graph"`

	// Seed drives the randomized algorithms (measurement draws, anneal
	// shots). 0 means DefaultSeed.
	Seed int64 `json:"seed,omitempty"`

	// TimeoutMS bounds the solve server-side; the server clamps it to
	// its configured maximum and maps it onto the request context, so
	// expiry returns the best answer found so far (HTTP 408 semantics).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Stream requests a progressive text/event-stream response (Event
	// frames ending in a "final" carrying the SolveResult) instead of a
	// single JSON document.
	Stream bool `json:"stream,omitempty"`

	// NoCache bypasses the canonical-hash result cache for this request
	// (the solve still runs; its result is not stored either).
	NoCache bool `json:"no_cache,omitempty"`

	Anneal *AnnealParams `json:"anneal,omitempty"`
}

// EffectiveSeed returns the seed the request runs under: Seed, or
// DefaultSeed when it is 0.
func (r *SolveRequest) EffectiveSeed() int64 { return cmp.Or(r.Seed, DefaultSeed) }

// EffectiveAnneal returns the qaMKP parameters the request runs under:
// Anneal with every zero (or absent) field replaced by its default.
func (r *SolveRequest) EffectiveAnneal() AnnealParams {
	var a AnnealParams
	if r.Anneal != nil {
		a = *r.Anneal
	}
	return AnnealParams{R: cmp.Or(a.R, DefaultR), Shots: cmp.Or(a.Shots, DefaultShots), DeltaT: cmp.Or(a.DeltaT, DefaultDeltaT)}
}

// Check validates the fields of a request beyond their JSON types:
// version, algorithm, k, t for qtkp, the anneal budget for qamkp, and
// timeout_ms. known reports which algorithm names the caller dispatches
// (KnownAlgo for the wire). Errors wrap core.ErrBadSpec, except a qamkp
// shots or deltat past MaxShots or MaxDeltaT, which wraps
// core.ErrTooLarge; a negative one is a bad spec (zero selects the
// default). The QUBO a qamkp request anneals grows with its graph, and
// its size is not capped here. DecodeSolveRequest runs Check on every
// document, and cmd/qmkp on the request it builds from its flags.
func (r *SolveRequest) Check(known func(algo string) bool) error {
	if r.V != Version {
		return fmt.Errorf("api: unsupported wire version %d (want %d): %w", r.V, Version, core.ErrBadSpec)
	}
	if !known(r.Algo) {
		return fmt.Errorf("api: unknown algorithm %q: %w", r.Algo, core.ErrBadSpec)
	}
	if r.K < 1 {
		return fmt.Errorf("api: k=%d must be ≥ 1: %w", r.K, core.ErrBadSpec)
	}
	if r.Algo == AlgoQTKP && r.T < 1 {
		return fmt.Errorf("api: qtkp needs t ≥ 1: %w", core.ErrBadSpec)
	}
	if r.Algo == AlgoQAMKP && r.Anneal != nil {
		if err := r.Anneal.checkBudget(); err != nil {
			return err
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("api: timeout_ms=%d must be ≥ 0: %w", r.TimeoutMS, core.ErrBadSpec)
	}
	return nil
}

func (a *AnnealParams) checkBudget() error {
	for _, f := range []struct {
		name     string
		val, max int
	}{{"shots", a.Shots, MaxShots}, {"deltat", a.DeltaT, MaxDeltaT}} {
		if f.val < 0 {
			return fmt.Errorf("api: anneal %s=%d must be ≥ 0: %w", f.name, f.val, core.ErrBadSpec)
		}
		if f.val > f.max {
			return fmt.Errorf("api: anneal %s=%d exceeds %d: %w", f.name, f.val, f.max, core.ErrTooLarge)
		}
	}
	return nil
}

// ProgressPoint is the wire form of one qMKP binary-search probe.
type ProgressPoint struct {
	T        int   `json:"t"`
	Found    bool  `json:"found"`
	Size     int   `json:"size,omitempty"`
	Set      []int `json:"set,omitempty"` // 1-based
	CumGates int64 `json:"cum_gates,omitempty"`
}

// SolveResult is the outcome of one solve. Set is 1-based. On
// cancellation or infeasibility the cost accounting is still populated
// and ErrorKind/Error classify what happened (see status.go).
type SolveResult struct {
	V    int    `json:"v"`
	ID   string `json:"id,omitempty"` // server-assigned request id (trace download key)
	Algo string `json:"algo"`
	K    int    `json:"k"`

	Size  int   `json:"size"`
	Set   []int `json:"set"`             // 1-based
	Found bool  `json:"found"`           // qtkp: witness found; others: Size > 0
	Valid *bool `json:"valid,omitempty"` // qamkp: decoded assignment is a k-plex

	Progress      []ProgressPoint `json:"progress,omitempty"`
	FirstFeasible *ProgressPoint  `json:"first_feasible,omitempty"`

	Nodes            int64   `json:"nodes,omitempty"` // classical search-tree nodes
	OracleCalls      int     `json:"oracle_calls,omitempty"`
	Gates            int64   `json:"gates,omitempty"`
	QPUTimeNS        int64   `json:"qpu_time_ns,omitempty"` // modelled gate-latency time
	ErrorProbability float64 `json:"error_probability,omitempty"`

	// Cached marks a result served from the canonical-hash cache, its
	// witness sets mapped through the isomorphism onto this request's
	// vertex labels.
	Cached bool `json:"cached,omitempty"`

	ErrorKind string `json:"error_kind,omitempty"` // one of the Kind* constants
	Error     string `json:"error,omitempty"`
}

// Clone returns a deep copy (vertex sets and progress points are not
// shared). The daemon's cache hands out clones so per-request label
// remapping cannot corrupt the stored canonical result.
func (r *SolveResult) Clone() *SolveResult {
	if r == nil {
		return nil
	}
	out := *r
	out.Set = append([]int(nil), r.Set...)
	if r.Valid != nil {
		v := *r.Valid
		out.Valid = &v
	}
	if r.Progress != nil {
		out.Progress = make([]ProgressPoint, len(r.Progress))
		for i, p := range r.Progress {
			p.Set = append([]int(nil), p.Set...)
			out.Progress[i] = p
		}
	}
	if r.FirstFeasible != nil {
		p := *r.FirstFeasible
		p.Set = append([]int(nil), p.Set...)
		out.FirstFeasible = &p
	}
	return &out
}

// RemapSets applies a vertex-label mapping to every set in the result:
// the answer, each probe's set and the first feasible one. The daemon's
// cache moves sets between request and canonical labels with it, and
// cmd/qmkp -reduce lifts kernel labels to input labels.
func (r *SolveResult) RemapSets(f func([]int) []int) {
	r.Set = f(r.Set)
	for i := range r.Progress {
		r.Progress[i].Set = f(r.Progress[i].Set)
	}
	if r.FirstFeasible != nil {
		r.FirstFeasible.Set = f(r.FirstFeasible.Set)
	}
}

// Event is one frame of the streaming response. Type orders the
// progressive-answer story: accepted → greedy_seed/kernel → probe /
// first_feasible / incumbent → final (Result set) — the paper's
// first-feasible-at-O(1/log n)-of-runtime property as a live feed.
type Event struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`

	T        int   `json:"t,omitempty"`
	Size     int   `json:"size,omitempty"`
	Found    bool  `json:"found,omitempty"`
	CumGates int64 `json:"cum_gates,omitempty"`

	Result *SolveResult `json:"result,omitempty"` // final frames only
}

// Event types of the streaming endpoint.
const (
	EventAccepted      = "accepted"       // job admitted; carries the request id
	EventGreedySeed    = "greedy_seed"    // classical lower bound before any probe
	EventKernel        = "kernel"         // bb: kernelization finished (Size = kernel vertices)
	EventProbe         = "probe"          // qmkp: one binary-search probe decided
	EventFirstFeasible = "first_feasible" // qmkp: first witness of any size
	EventIncumbent     = "incumbent"      // bb: incumbent improved
	EventFinal         = "final"          // terminal frame; Result is populated
)

// decodeStrict decodes exactly one JSON document from r into v,
// rejecting unknown fields and trailing content. op names the decode in
// errors ("api: <op>: …"); the cause stays in the wrap chain beside
// core.ErrBadSpec, so a read error such as *http.MaxBytesError is still
// found by errors.As.
func decodeStrict(r io.Reader, v any, op string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: %s: %w: %w", op, err, core.ErrBadSpec)
	}
	// Only whitespace may follow. Decoder.More would not do here: it
	// reports false before a stray ']' or '}', taking it for the end of an
	// enclosing value.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("api: trailing data after JSON document: %w", core.ErrBadSpec)
	}
	return nil
}

// DecodeSolveRequest reads one SolveRequest and checks it against the
// wire algorithms. Unknown fields, version mismatches, unknown
// algorithms and out-of-range parameters all wrap core.ErrBadSpec; an
// anneal budget past its cap wraps core.ErrTooLarge (Check).
//
// It reads the whole body, then tries scanRequest, a byte-level reader
// for the subset of the schema that clients send (scan.go). A document
// outside that subset, or a body whose read failed, goes through
// encoding/json as the same byte stream, so both paths accept the same
// documents, return equal requests and fail with the same texts.
func DecodeSolveRequest(r io.Reader) (*SolveRequest, error) {
	data, readErr := io.ReadAll(r)
	var req *SolveRequest
	if readErr == nil {
		req = scanRequest(data)
	}
	if req == nil {
		req = new(SolveRequest)
		if err := decodeStrict(replay(data, readErr), req, "decode"); err != nil {
			return nil, err
		}
	}
	if err := req.Check(KnownAlgo); err != nil {
		return nil, err
	}
	return req, nil
}

// replay returns a reader that yields data and then, if err is not nil,
// fails with err on every later read: the stream io.ReadAll saw, so
// encoding/json meets a failed read (an oversized body under
// http.MaxBytesReader, say) where it would have met it reading r.
func replay(data []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(data)
	}
	return io.MultiReader(bytes.NewReader(data), failedRead{err})
}

// failedRead is a reader that always fails with err.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// DecodeSolveResult reads one SolveResult with the same strictness; the
// client half of the round trip (cmd/qmkp-load, _bench, tests).
func DecodeSolveResult(r io.Reader) (*SolveResult, error) {
	var res SolveResult
	if err := decodeStrict(r, &res, "decode"); err != nil {
		return nil, err
	}
	if res.V != Version {
		return nil, fmt.Errorf("api: unsupported wire version %d (want %d): %w", res.V, Version, core.ErrBadSpec)
	}
	return &res, nil
}

// DecodeEvent reads one Event frame (the `data:` payload of an SSE
// line) with the same strictness.
func DecodeEvent(data []byte) (*Event, error) {
	var ev Event
	if err := decodeStrict(bytes.NewReader(data), &ev, "decode event"); err != nil {
		return nil, err
	}
	if ev.V != Version {
		return nil, fmt.Errorf("api: unsupported wire version %d (want %d): %w", ev.V, Version, core.ErrBadSpec)
	}
	return &ev, nil
}

// OneBased converts a 0-based vertex set to the wire's 1-based labels.
func OneBased(set []int) []int {
	if set == nil {
		return nil
	}
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = v + 1
	}
	return out
}

// ZeroBased is the inverse of OneBased.
func ZeroBased(set []int) []int {
	if set == nil {
		return nil
	}
	out := make([]int, len(set))
	for i, v := range set {
		out[i] = v - 1
	}
	return out
}
