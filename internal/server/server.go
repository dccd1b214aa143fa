// Package server is the solver daemon behind cmd/qmkpd: a bounded,
// cache-fronted HTTP service over Execute, the one dispatcher that
// configures and runs every wire algorithm (cmd/qmkp calls it too).
//
// Request lifecycle: POST /v1/solve decodes a strict api.SolveRequest,
// passes admission control (a buffered-channel semaphore of MaxInflight
// slots plus a bounded wait queue — anything past QueueDepth is turned
// away with 429 immediately, never parked), consults the canonical-hash
// result cache (internal/canon), and otherwise runs the solve under a
// per-request deadline context. Clients may stream: the solver's obs
// span/event feed is translated frame-by-frame into text/event-stream
// (greedy seed → kernel → probes/incumbents → final), emitted
// synchronously on the handler goroutine.
//
// Concurrency inventory (mirrored by the internal/server entry in
// CONC_POLICY.json): one Serve goroutine joined by channel receive
// before Serve returns; the admission semaphore channel; mutexes inside
// the result cache and trace ring; atomics for request ids and the
// queue-depth counter. Everything else concurrent happens inside the
// solver stack's own policied packages.
//
// Shutdown: cancelling the context passed to Run/Serve stops accepting
// connections and gives in-flight solves DrainTimeout to finish; at the
// deadline every solve context is cancelled, which makes the solvers
// return their best-so-far answers (core's cancellation contract), and
// those responses are still delivered before the listener closes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config sizes the daemon. The zero value of any field selects the
// default noted on it.
type Config struct {
	Addr string // listen address for Run; default ":7477"

	MaxInflight int // concurrent solves; default 4
	QueueDepth  int // admitted-but-waiting requests beyond MaxInflight; default 16

	DefaultTimeout time.Duration // per-solve deadline when the request has none; default 30s
	MaxTimeout     time.Duration // clamp on request timeout_ms; default 2m
	DrainTimeout   time.Duration // shutdown grace for in-flight solves; default 5s

	MaxVertices     int   // admission cap on instance size; default 10000
	MaxRequestBytes int64 // request body cap; default 8 MiB

	CacheEntries int // result-cache capacity; default 256
	TraceEntries int // retained solve traces; default 64

	Metrics *obs.Metrics // shared registry; default a fresh one
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":7477"
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 10000
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.TraceEntries == 0 {
		c.TraceEntries = 64
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// admission outcomes of acquire.
const (
	admitOK        = iota // slot held; caller must release
	admitQueueFull        // bounded queue exceeded → 429
	admitGone             // client or server context ended while queued → 408
)

// Server is the solver daemon. Create with New; serve with Run or
// Serve, or mount Handler on an existing mux.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *obs.Metrics

	sem     chan struct{} // admission semaphore; len == in-flight solves
	waiting atomic.Int64  // queued past the semaphore
	reqID   atomic.Int64

	// hardCtx is cancelled when the drain deadline passes during
	// shutdown; every in-flight solve context is torn down with it.
	hardCtx  context.Context
	hardStop context.CancelFunc

	cache  *resultCache
	traces *traceRing

	// execFn is the solve dispatcher (Execute), handed the graph solve
	// already built; tests substitute stubs to drive admission and
	// shutdown without real solver work.
	execFn func(context.Context, *api.SolveRequest, *graph.Graph, obs.Obs) (*api.SolveResult, error)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: cfg.Metrics,
		sem:     make(chan struct{}, cfg.MaxInflight),
		cache:   newResultCache(cfg.CacheEntries),
		traces:  newTraceRing(cfg.TraceEntries),
		execFn:  Execute,
	}
	s.hardCtx, s.hardStop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	return s
}

// Handler returns the daemon's route table for mounting on an existing
// mux (tests use it with httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Run listens on cfg.Addr and serves until ctx is cancelled, then
// drains per the shutdown contract.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then shuts down
// gracefully: stop accepting, give in-flight solves DrainTimeout, then
// cancel the rest (they respond with best-so-far under the core
// cancellation contract) and close. The listener is always closed by
// the time Serve returns, and the one goroutine Serve spawns is always
// joined.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		s.hardStop()
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}

	// Drain window: at its deadline hardStop fires, cancelling every
	// in-flight solve context; handlers then flush best-so-far bodies,
	// so Shutdown (given a little extra grace for that flush) returns
	// with every response delivered rather than cut off.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancelDrain()
	stopAfter := context.AfterFunc(drainCtx, s.hardStop)
	defer stopAfter()

	shCtx, cancelSh := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+5*time.Second)
	defer cancelSh()
	err := srv.Shutdown(shCtx)
	<-errCh // join the serve goroutine (it has returned ErrServerClosed)
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}

// acquire claims a solve slot, waiting in the bounded queue if the
// semaphore is full. release is non-nil exactly when the result is
// admitOK.
func (s *Server) acquire(ctx context.Context) (release func(), outcome int) {
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, admitOK
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, admitQueueFull
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, admitOK
	case <-ctx.Done():
		return nil, admitGone
	case <-s.hardCtx.Done():
		return nil, admitGone
	}
}

// releaseSlot frees one admission slot.
func (s *Server) releaseSlot() { <-s.sem }

// solveContext derives the per-request solve context: the client's
// context bounded by the (clamped) requested deadline, torn down early
// if the shutdown drain deadline passes.
func (s *Server) solveContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// handleSolve is POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("server.requests", 1)
	req, err := api.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			err = fmt.Errorf("server: request body exceeds %d bytes: %w", mbe.Limit, core.ErrTooLarge)
		}
		s.metrics.Add("server.bad_requests", 1)
		s.writeError(w, "", err)
		return
	}
	release, outcome := s.acquire(r.Context())
	switch outcome {
	case admitQueueFull:
		s.metrics.Add("server.rejected", 1)
		w.Header().Set("Retry-After", "1")
		res := &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K, ErrorKind: api.KindBusy,
			Error: fmt.Sprintf("server at capacity (%d in flight, %d queued); retry later", s.cfg.MaxInflight, s.cfg.QueueDepth)}
		writeJSON(w, http.StatusTooManyRequests, res)
		return
	case admitGone:
		s.metrics.Add("server.client_gone", 1)
		s.writeError(w, "", fmt.Errorf("server: request abandoned while queued: %w", core.ErrCanceled))
		return
	}
	defer release()
	s.metrics.Add("server.admitted", 1)
	s.metrics.SetGauge("server.inflight", float64(len(s.sem)))

	id := fmt.Sprintf("r%d", s.reqID.Add(1))
	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()

	rec := obs.NewRecorder()
	var stream *sseStream
	var observer obs.Observer = rec
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		stream = newSSEStream(w, id)
		stream.emit(api.Event{Type: api.EventAccepted})
		observer = obs.Tee(rec, stream)
	}
	ob := obs.Obs{Trace: obs.NewTrace(observer), Metrics: s.metrics}

	start := time.Now()
	res, err := s.solve(ctx, req, ob)
	s.metrics.Add("server.solve_ms_total", time.Since(start).Milliseconds())
	s.metrics.Add("server.solves", 1)
	s.traces.put(id, rec)

	if res == nil {
		res = &api.SolveResult{V: api.Version, Algo: req.Algo, K: req.K}
	}
	res.ID = id
	res.SetError(err)
	if err != nil {
		s.metrics.Add("server.errors."+api.ErrorKind(err), 1)
	}
	if stream != nil {
		stream.final(res)
		return
	}
	w.Header().Set("X-Request-Id", id)
	writeJSON(w, api.HTTPStatus(err), res)
}

// solve fronts the dispatcher with the canonical-hash cache: compute
// the instance's canonical form, look up (hash, params); on a verified
// hit, map the stored witness sets through the isomorphism onto this
// request's labels. Misses run the solver and store the result in
// canonical labels, so one entry covers every relabelling.
func (s *Server) solve(ctx context.Context, req *api.SolveRequest, ob obs.Obs) (*api.SolveResult, error) {
	if req.Graph.N > s.cfg.MaxVertices {
		return nil, fmt.Errorf("server: instance has %d vertices, admission cap is %d: %w",
			req.Graph.N, s.cfg.MaxVertices, core.ErrTooLarge)
	}
	g, err := req.Graph.Build()
	if err != nil {
		return nil, err
	}
	form := canon.Canonical(g)
	key := cacheKey(form.Hash, req)
	if !req.NoCache {
		if cached, ok := s.cache.get(key, form.Bytes); ok {
			s.metrics.Add("server.cache.hits", 1)
			ob.Trace.Event("server.cache.hit", obs.Str("hash", form.Hash[:16]))
			cached.RemapSets(func(set []int) []int {
				return api.OneBased(form.Lift(api.ZeroBased(set)))
			})
			cached.Cached = true
			return cached, nil
		}
		s.metrics.Add("server.cache.misses", 1)
	}
	res, err := s.execFn(ctx, req, g, ob)
	if err == nil && res != nil && !req.NoCache {
		stored := res.Clone()
		stored.RemapSets(func(set []int) []int {
			return api.OneBased(form.Apply(api.ZeroBased(set)))
		})
		s.cache.put(key, form.Bytes, stored)
	}
	return res, err
}

// cacheKey joins the canonical hash with every parameter that steers
// the solve. Seed and anneal parameters enter in normalized form so
// requests spelling the defaults explicitly share entries with ones
// that omit them.
func cacheKey(hash string, req *api.SolveRequest) string {
	key := fmt.Sprintf("%s|%s|k=%d", hash, req.Algo, req.K)
	switch req.Algo {
	case api.AlgoQTKP:
		key += fmt.Sprintf("|t=%d|seed=%d", req.T, req.EffectiveSeed())
	case api.AlgoQMKP:
		key += fmt.Sprintf("|seed=%d", req.EffectiveSeed())
	case api.AlgoQAMKP:
		p := req.EffectiveAnneal()
		key += fmt.Sprintf("|seed=%d|r=%g|shots=%d|dt=%d", req.EffectiveSeed(), p.R, p.Shots, p.DeltaT)
	}
	return key
}

// handleTrace is GET /v1/trace/{id}: the retained solve trace as the
// same canonical JSONL cmd/qmkp -trace-out writes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.traces.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown or evicted trace id", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := rec.WriteJSONL(w); err != nil {
		s.metrics.Add("server.trace_write_errors", 1)
	}
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleVars is GET /debug/vars: the server's metrics registry as one
// canonical JSON object ({"counters":{...},"gauges":{...}}). Served
// per-Server rather than through the process-global expvar page so
// multiple Servers (tests) never collide on expvar.Publish.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.metrics.WriteJSON(w); err != nil {
		s.metrics.Add("server.trace_write_errors", 1)
	}
}

// writeError renders an error-only result body under the shared
// taxonomy.
func (s *Server) writeError(w http.ResponseWriter, id string, err error) {
	res := &api.SolveResult{V: api.Version, ID: id}
	res.SetError(err)
	writeJSON(w, api.HTTPStatus(err), res)
}

// writeJSON writes v as a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}
