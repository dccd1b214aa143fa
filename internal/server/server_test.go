package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// testInstance is the shared fixture: irregular enough for canonical
// refinement to individualize, small enough for instant bb solves.
func testInstance(seed int64) *graph.Graph { return graph.Gnm(40, 120, seed) }

// postSolve runs one request against a handler-mounted server.
func postSolve(t *testing.T, ts *httptest.Server, req *api.SolveRequest) (*api.SolveResult, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err := api.DecodeSolveResult(resp.Body)
	if err != nil {
		t.Fatalf("decode (status %d): %v", resp.StatusCode, err)
	}
	return res, resp.StatusCode
}

// permuteWire relabels a wire graph by a seeded permutation.
func permuteWire(g api.Graph, seed int64) api.Graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.N)
	out := api.Graph{N: g.N, Edges: make([][2]int, len(g.Edges))}
	for i, e := range g.Edges {
		u, v := perm[e[0]-1]+1, perm[e[1]-1]+1
		if u > v {
			u, v = v, u
		}
		out.Edges[i] = [2]int{u, v}
	}
	return out
}

// isWireKPlex verifies a 1-based witness against a wire graph.
func isWireKPlex(g api.Graph, set []int, k int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	deg := make(map[int]int, len(set))
	for _, e := range g.Edges {
		if in[e[0]] && in[e[1]] {
			deg[e[0]]++
			deg[e[1]]++
		}
	}
	for _, v := range set {
		if deg[v] < len(set)-k {
			return false
		}
	}
	return true
}

// TestSolveEndpointMatchesDirect: the HTTP answer equals a direct
// library call on the same instance.
func TestSolveEndpointMatchesDirect(t *testing.T) {
	g := testInstance(1)
	direct, err := kplex.BBOpt(context.Background(), g, 2, kplex.BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, status := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: api.FromGraph(g)})
	if status != http.StatusOK || res.Error != "" {
		t.Fatalf("status %d, error %q", status, res.Error)
	}
	if res.Size != direct.Size {
		t.Errorf("endpoint size %d, direct size %d", res.Size, direct.Size)
	}
	if !isWireKPlex(api.FromGraph(g), res.Set, 2) {
		t.Errorf("endpoint witness %v is not a 2-plex", res.Set)
	}
	if res.ID == "" {
		t.Error("result carries no request id")
	}
}

// TestCacheHitOnRelabeledInstance is the tentpole acceptance check: a
// permuted resubmission is served from the cache with the witness
// mapped onto the new labels, and the counters record the hit.
func TestCacheHitOnRelabeledInstance(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wire := api.FromGraph(testInstance(2))
	first, status := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: wire})
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first solve: status %d, cached %v", status, first.Cached)
	}
	perm := permuteWire(wire, 99)
	second, status := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: perm})
	if status != http.StatusOK {
		t.Fatalf("second solve: status %d", status)
	}
	if !second.Cached {
		t.Fatal("relabelled resubmission was not served from the cache")
	}
	if second.Size != first.Size {
		t.Errorf("cached size %d, original %d", second.Size, first.Size)
	}
	if !isWireKPlex(perm, second.Set, 2) {
		t.Errorf("cached witness %v is not a 2-plex under the new labels", second.Set)
	}
	counters, _ := s.metrics.Snapshot()
	if counters["server.cache.hits"] != 1 {
		t.Errorf("server.cache.hits = %d, want 1", counters["server.cache.hits"])
	}
	if counters["server.cache.misses"] != 1 {
		t.Errorf("server.cache.misses = %d, want 1", counters["server.cache.misses"])
	}

	// Different parameters must not share the entry.
	third, _ := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 3, Graph: perm})
	if third.Cached {
		t.Error("k=3 request hit the k=2 cache entry")
	}
	// NoCache bypasses both lookup and store.
	fourth, _ := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: wire, NoCache: true})
	if fourth.Cached {
		t.Error("no_cache request was served from the cache")
	}
}

// TestAdmissionControl: requests past MaxInflight+QueueDepth are turned
// away immediately with 429 while the slots are held.
func TestAdmissionControl(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s := New(Config{MaxInflight: 1, QueueDepth: 1})
	s.execFn = func(ctx context.Context, req *api.SolveRequest, g *graph.Graph, ob obs.Obs) (*api.SolveResult, error) {
		started <- struct{}{}
		<-gate
		return &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wire := api.FromGraph(testInstance(3))
	body, err := json.Marshal(&api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: wire})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the one in-flight slot.
	bg := make(chan int, 2)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			bg <- -1
			return
		}
		resp.Body.Close()
		bg <- resp.StatusCode
	}()
	<-started
	// Fill the one queue slot (this request blocks in acquire).
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			bg <- -1
			return
		}
		resp.Body.Close()
		bg <- resp.StatusCode
	}()
	// The queued request must be counted before the overflow probe.
	deadline := time.Now().Add(2 * time.Second)
	for s.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.waiting.Load() == 0 {
		t.Fatal("second request never queued")
	}
	// Past capacity: immediate 429.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	overflow, err := api.DecodeSolveResult(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow status %d, want 429", resp.StatusCode)
	}
	if overflow.ErrorKind != api.KindBusy {
		t.Errorf("overflow error kind %q, want %q", overflow.ErrorKind, api.KindBusy)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-bg; code != http.StatusOK {
			t.Errorf("held request %d finished with status %d", i, code)
		}
	}
	counters, _ := s.metrics.Snapshot()
	if counters["server.rejected"] != 1 {
		t.Errorf("server.rejected = %d, want 1", counters["server.rejected"])
	}
}

// TestStreamedSolve: the SSE feed opens with accepted, carries the
// greedy seed, and ends in a final frame matching the non-streamed
// answer.
func TestStreamedSolve(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wire := api.FromGraph(testInstance(4))
	body, err := json.Marshal(&api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: wire, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var events []*api.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			ev, err := api.DecodeEvent([]byte(strings.TrimPrefix(sc.Text(), "data: ")))
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d frames", len(events))
	}
	if events[0].Type != api.EventAccepted || events[0].ID == "" {
		t.Errorf("first frame %+v, want accepted with id", events[0])
	}
	types := make(map[string]int)
	for _, ev := range events {
		types[ev.Type]++
	}
	if types[api.EventGreedySeed] == 0 {
		t.Error("no greedy_seed frame")
	}
	last := events[len(events)-1]
	if last.Type != api.EventFinal || last.Result == nil {
		t.Fatalf("last frame %+v, want final with result", last)
	}
	direct, err := kplex.BBOpt(context.Background(), testInstance(4), 2, kplex.BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if last.Result.Size != direct.Size {
		t.Errorf("streamed size %d, direct %d", last.Result.Size, direct.Size)
	}
}

// TestQMKPStreamCarriesProbes: the gate-model path emits greedy_seed,
// probe and first_feasible frames sourced from the obs span stream.
func TestQMKPStreamCarriesProbes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := graph.Gnm(14, 38, 5)
	body, err := json.Marshal(&api.SolveRequest{V: api.Version, Algo: api.AlgoQMKP, K: 2, Graph: api.FromGraph(g), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	types := make(map[string]int)
	var last *api.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			ev, err := api.DecodeEvent([]byte(strings.TrimPrefix(sc.Text(), "data: ")))
			if err != nil {
				t.Fatal(err)
			}
			types[ev.Type]++
			last = ev
		}
	}
	if types[api.EventProbe] == 0 || types[api.EventFirstFeasible] != 1 || types[api.EventGreedySeed] == 0 {
		t.Errorf("frame counts %v: want probes, exactly one first_feasible, a greedy_seed", types)
	}
	if last == nil || last.Type != api.EventFinal || last.Result == nil || last.Result.Error != "" {
		t.Fatalf("stream did not end in a clean final frame: %+v", last)
	}
	if len(last.Result.Progress) != types[api.EventProbe] {
		t.Errorf("final result has %d progress points but %d probe frames streamed",
			len(last.Result.Progress), types[api.EventProbe])
	}
}

// TestTraceDownload: a finished solve's trace is retrievable as JSONL
// and matches the span names of the solver that ran.
func TestTraceDownload(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, _ := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: api.FromGraph(testInstance(6))})
	resp, err := http.Get(ts.URL + "/v1/trace/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"kplex.bb"`) {
		t.Errorf("trace does not contain the bb root span:\n%s", buf.String())
	}
	if resp, err := http.Get(ts.URL + "/v1/trace/nonesuch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestErrorTaxonomyOverHTTP drives each sentinel through the endpoint.
func TestErrorTaxonomyOverHTTP(t *testing.T) {
	s := New(Config{MaxVertices: 50})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	small := api.Graph{N: 3, Edges: [][2]int{{1, 2}, {2, 3}}}

	// Malformed document → 400.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"v":1,"algo":"bb"`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed: status %d, want 400", resp.StatusCode)
	}
	// A stray closing bracket or brace after the document → 400.
	for _, tail := range []string{"]", "}"} {
		doc := `{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}` + tail
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing %q: status %d, want 400", tail, resp.StatusCode)
		}
	}
	// Admission cap → 413.
	res, status := postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: api.FromGraph(graph.Gnm(60, 100, 1))})
	if status != http.StatusRequestEntityTooLarge || res.ErrorKind != api.KindTooLarge {
		t.Errorf("oversized: status %d kind %q, want 413 %q", status, res.ErrorKind, api.KindTooLarge)
	}
	// A request body past the byte cap → 413, not a decode error's 400.
	capped := httptest.NewServer(New(Config{MaxRequestBytes: 64}).Handler())
	defer capped.Close()
	cycle := api.Graph{N: 5, Edges: [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}}}
	res, status = postSolve(t, capped, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: cycle})
	if status != http.StatusRequestEntityTooLarge || res.ErrorKind != api.KindTooLarge {
		t.Errorf("body past the cap: status %d kind %q (%s), want 413 %q", status, res.ErrorKind, res.Error, api.KindTooLarge)
	}
	// An annealing penalty of at most 1 is the caller's error → 400.
	for _, r := range []float64{0.5, 1, -3} {
		res, status = postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoQAMKP, K: 2, Graph: small, Anneal: &api.AnnealParams{R: r}})
		if status != http.StatusBadRequest || res.ErrorKind != api.KindBadSpec {
			t.Errorf("anneal r=%v: status %d kind %q, want 400 %q", r, status, res.ErrorKind, api.KindBadSpec)
		}
	}
	// Verified infeasibility travels in-band with 200: an edgeless
	// instance has no 1-plex (clique) of size 2.
	res, status = postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoQTKP, K: 1, T: 2, Graph: api.Graph{N: 4}})
	if status != http.StatusOK || res.ErrorKind != api.KindInfeasible {
		t.Errorf("infeasible: status %d kind %q, want 200 %q", status, res.ErrorKind, api.KindInfeasible)
	}
	// Deadline → 408 with the canceled kind.
	s.execFn = func(ctx context.Context, req *api.SolveRequest, g *graph.Graph, ob obs.Obs) (*api.SolveResult, error) {
		<-ctx.Done()
		return &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K, Size: 1, Set: []int{1}},
			fmt.Errorf("probe: %w", core.ErrCanceled)
	}
	res, status = postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: small, TimeoutMS: 20, NoCache: true})
	if status != http.StatusRequestTimeout || res.ErrorKind != api.KindCanceled {
		t.Errorf("deadline: status %d kind %q, want 408 %q", status, res.ErrorKind, api.KindCanceled)
	}
	if res.Size != 1 {
		t.Errorf("deadline response dropped the best-so-far result: %+v", res)
	}
}

// countdownCtx reports cancellation once Err has been consulted more
// than n times — a deterministic mid-solve cancel.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestExecuteCancellation: a cancel arriving mid-solve surfaces as the
// core sentinel with the best-so-far witness attached, for both solver
// families.
func TestExecuteCancellation(t *testing.T) {
	wire := api.FromGraph(testInstance(7))
	for _, algo := range []string{api.AlgoBB, api.AlgoQMKP} {
		req := &api.SolveRequest{V: api.Version, Algo: algo, K: 2, Graph: wire}
		if algo == api.AlgoQMKP {
			req.Graph = api.FromGraph(graph.Gnm(14, 38, 5))
		}
		g, err := req.Graph.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(newCountdownCtx(0), req, g, obs.Obs{})
		if !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", algo, err)
		}
		if res == nil {
			t.Errorf("%s: cancellation dropped the partial result", algo)
		}
	}
}

// TestGracefulShutdown: cancelling Serve's context drains an in-flight
// solve — the client still gets its (best-so-far) response — and Serve
// returns with no goroutines left behind.
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{DrainTimeout: 150 * time.Millisecond})
	inflight := make(chan struct{})
	s.execFn = func(ctx context.Context, req *api.SolveRequest, g *graph.Graph, ob obs.Obs) (*api.SolveResult, error) {
		close(inflight)
		<-ctx.Done() // holds until the drain deadline cancels solve contexts
		return &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K, Size: 2, Set: []int{1, 2}},
			fmt.Errorf("drained: %w", core.ErrCanceled)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	wire := api.FromGraph(testInstance(8))
	body, err := json.Marshal(&api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2, Graph: wire, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			respCh <- nil
			return
		}
		respCh <- resp
	}()
	<-inflight // the solve is running; now pull the plug
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	resp := <-respCh
	if resp == nil {
		t.Fatal("in-flight request was dropped instead of drained")
	}
	defer resp.Body.Close()
	res, err := api.DecodeSolveResult(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestTimeout || res.ErrorKind != api.KindCanceled {
		t.Errorf("drained response: status %d kind %q, want 408 %q", resp.StatusCode, res.ErrorKind, api.KindCanceled)
	}
	if res.Size != 2 {
		t.Errorf("drained response lost the best-so-far answer: %+v", res)
	}
	// New work after shutdown must be refused at the socket.
	if _, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json", bytes.NewReader(body)); err == nil {
		t.Error("listener still accepting after Serve returned")
	}
	// Goroutine-leak poll: everything Serve spawned must be gone.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+1 {
		t.Errorf("goroutines: %d before, %d after shutdown", before, now)
	}
}

// TestHealthAndVars pins the two operational endpoints.
func TestHealthAndVars(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	postSolve(t, ts, &api.SolveRequest{V: api.Version, Algo: api.AlgoGreedy, K: 2, Graph: api.FromGraph(testInstance(9))})
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["server.requests"] < 1 || doc.Counters["server.admitted"] < 1 {
		t.Errorf("vars counters missing the request: %v", doc.Counters)
	}
}

// TestCacheLRUEviction: capacity is enforced and eviction is
// least-recently-used.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	mk := func(id string) *api.SolveResult { return &api.SolveResult{V: api.Version, ID: id} }
	c.put("a", []byte("A"), mk("a"))
	c.put("b", []byte("B"), mk("b"))
	if _, ok := c.get("a", []byte("A")); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.put("c", []byte("C"), mk("c"))
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if _, ok := c.get("b", []byte("B")); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.get("a", []byte("A")); !ok {
		t.Error("recently used entry a was evicted")
	}
	// Canonical-bytes mismatch (hash collision stand-in) must miss.
	if _, ok := c.get("a", []byte("X")); ok {
		t.Error("mismatched canonical bytes still hit")
	}
}
