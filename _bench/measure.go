package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// sample is one request of the timed phase.
type sample struct {
	req     int           // index into the request stream
	sent    time.Duration // since the timed phase began
	paused  time.Duration // spent on reference loops just before it was sent
	ref     float64       // median of the latest block of reference loops, ms
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// answer is a sample after checking.
type answer struct {
	res     *api.SolveResult // nil when the reply did not decode
	quality float64          // returned size ÷ reference; 0 for an invalid witness
	err     error            // why the request failed, nil when it passed
}

// measurement is everything the untraced run collected.
type measurement struct {
	reqs        []request
	samples     []sample
	answers     []answer
	failed      int
	setups      []float64 // seconds per set-up
	setupRef    []float64 // median reference loop before each set-up, ms
	ref         []float64 // every reference loop of the timed phase, ms
	elapsed     time.Duration
	cpu         time.Duration    // daemon user+system CPU over the timed phase
	peakRSS     int64            // daemon VmHWM after rssAfter timed requests
	stealShare  float64          // hypervisor steal over the timed phase, whole host
	cpuID       int              // the CPU the daemon and the load generator share
	daemonSteal float64          // hypervisor steal on that CPU
	nproc       int              // CPUs of the host, from /proc/stat
	vars        map[string]int64 // /debug/vars counter deltas over the timed phase
	problems    []string         // broken workload premises
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// measure sets the daemon up several times, runs the timed phase on the
// last one, and checks every answer.
func measure(cfg config, wl *workload) (*measurement, error) {
	m := &measurement{}
	var pool []*graph.Graph
	if wl.name == "exact-relabel" {
		pool = relabelPool(cfg.sz, cfg.seed)
	}
	// The warm-up is the same for every seed, so set-up time measures the
	// daemon, not the seed's instances (exact-relabel adds its pool).
	warm := generate(wl, cfg.sz, 0, streamWarmup, wl.warmup, nil)
	for j, g := range pool {
		warm = append(warm, request{body: encode(bbRequest(g)), algo: api.AlgoBB, n: g.N(), pool: j})
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// The load generator and the daemon share one CPU, the lowest this
	// process may use, through set-up and the timed phase; generating the
	// stream and checking the answers may use every CPU.
	allowed, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if m.cpuID, err = strconv.Atoi(allowed[:strings.IndexAny(allowed+",", ",-")]); err != nil {
		return nil, fmt.Errorf("parsing allowed CPUs %q: %w", allowed, err)
	}
	cpu := strconv.Itoa(m.cpuID)
	defer func() { _ = pin(allowed) }()
	if err := pin(cpu); err != nil {
		return nil, err
	}
	var warmBodies [][]byte
	var fastest time.Duration // quickest warm-up request of the last set-up
	for s := 0; s < cfg.sz.setups; s++ {
		if d != nil {
			d.stop()
			d = nil
		}
		m.setupRef = append(m.setupRef, quantile(timeRef(refPerSetup), 0.5))
		start := time.Now()
		if d, err = startDaemon(cfg.qmkpd); err != nil {
			return nil, err
		}
		warmBodies, fastest = warmBodies[:0], time.Hour
		for _, r := range warm {
			t := time.Now()
			status, body, err := d.post(r.body)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("warm-up request failed: status %d: %v: %s", status, err, body)
			}
			fastest = min(fastest, time.Since(t))
			warmBodies = append(warmBodies, body)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}

	// Size the stream for twice the rate of the quickest warm-up request,
	// so a faster daemon still gets only fresh instances. Cache hits are
	// too quick to pre-encode a run of fresh relabellings; exact-relabel
	// cycles through a ring instead.
	count := int(2*cfg.seconds/fastest.Seconds()) + 16
	if pool != nil {
		count = relabelRing
	}
	if err := pin(allowed); err != nil {
		return nil, err
	}
	m.reqs = generate(wl, cfg.sz, cfg.seed, streamTimed, count, pool)
	if err := pin(cpu); err != nil {
		return nil, err
	}

	vars0, err := d.vars()
	if err != nil {
		return nil, err
	}
	cpu0, err1 := d.cpuTime()
	host0, err2 := readCPUStat()
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	exhausted, err := m.timedPhase(d, time.Duration(cfg.seconds*float64(time.Second)), pool != nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	cpu1, err1 := d.cpuTime()
	host1, err2 := readCPUStat()
	vars1, err3 := d.vars()
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	if err := pin(allowed); err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	m.stealShare = stealShare(host0, host1, "cpu")
	m.daemonSteal = stealShare(host0, host1, "cpu"+cpu)
	m.nproc = len(host0) - 1 // the "cpu" line sums the per-CPU ones
	m.vars = map[string]int64{}
	for name, v := range vars1 {
		m.vars[name] = v - vars0[name]
	}
	if exhausted {
		m.problem("request stream exhausted after %d requests, sized for twice the quickest warm-up request", len(m.samples))
	}
	if err := m.check(wl, pool, warmBodies); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d requests in %.2fs, %d failed, steal %.1f%% (daemon CPU %.1f%%)\n",
		wl.name, cfg.seed, len(m.samples), m.elapsed.Seconds(), m.failed, 100*m.stealShare, 100*m.daemonSteal)
	byAlgo := map[string][]float64{}
	for _, s := range m.samples {
		a := m.reqs[s.req].algo
		byAlgo[a] = append(byAlgo[a], float64(s.latency)/float64(time.Millisecond))
	}
	for _, a := range []string{api.AlgoBB, api.AlgoQMKP, api.AlgoQAMKP} {
		if lat := byAlgo[a]; lat != nil {
			fmt.Fprintf(os.Stderr, "bench:   %s: %d requests, latency p50 %.2f ms, p90 %.2f ms\n", a, len(lat), quantile(lat, 0.5), quantile(lat, 0.9))
		}
	}
	return m, nil
}

// rssAfter is the number of timed requests after which the daemon's
// peak RSS is read, and the least the timed phase sends. The daemon's
// result cache grows with every cache miss, so a peak read at the end
// would follow how many requests the host's speed let through rather
// than the memory the work needs.
const rssAfter = 64

// timedPhase sends requests one after another until dur has passed and
// at least rssAfter have been answered. Every refEvery it pauses the
// daemon between two requests and runs refBlock reference loops. It
// reports whether a stream that must not repeat ran out.
func (m *measurement) timedPhase(d *daemon, dur time.Duration, cycle bool) (exhausted bool, err error) {
	m.samples = make([]sample, 0, len(m.reqs))
	start := time.Now()
	lastRef, refMs := start.Add(-refEvery), 0.0
	for i := 0; time.Since(start) < dur || i < rssAfter; i++ {
		if i == len(m.reqs) && !cycle {
			exhausted = true
			break
		}
		var paused time.Duration
		if time.Since(lastRef) >= refEvery {
			lastRef = time.Now()
			if err := d.pause(); err != nil {
				return exhausted, err
			}
			block := timeRef(refBlock)
			m.ref = append(m.ref, block...)
			refMs = quantile(block, 0.5)
			if err := d.resume(); err != nil {
				return exhausted, err
			}
			paused = time.Since(lastRef)
		}
		idx := i % len(m.reqs)
		t := time.Now()
		status, body, postErr := d.post(m.reqs[idx].body)
		m.samples = append(m.samples, sample{req: idx, sent: t.Sub(start), paused: paused, ref: refMs, latency: time.Since(t), status: status, body: body, err: postErr})
		if i == rssAfter-1 {
			if m.peakRSS, err = d.peakRSS(); err != nil {
				return exhausted, err
			}
		}
	}
	m.elapsed = time.Since(start)
	return exhausted, nil
}

// check judges every answer: the reply decodes without error, its
// witness is a k-plex of the claimed size in the requester's labels,
// and the size matches an independent reference computed now, after the
// timed phase. It then checks the workload's premises.
func (m *measurement) check(wl *workload, pool []*graph.Graph, warmBodies [][]byte) error {
	refs := make([]int, len(m.samples))
	if pool != nil {
		// The pool answers from set-up, each checked against the
		// reference engine, stand for every relabelling of the instance.
		poolRefs := make([]int, len(pool))
		if err := forEach(len(pool), func(j int) error {
			var err error
			poolRefs[j], err = wl.reference(pool[j], k)
			return err
		}); err != nil {
			return err
		}
		warmAnswers := warmBodies[len(warmBodies)-len(pool):]
		for j, g := range pool {
			form := canon.Canonical(g)
			if !form.Discrete() {
				m.problem("pool instance %d has no discrete canonical form (%d cells, n=%d)", j, form.Cells, form.N)
			}
			res, err := api.DecodeSolveResult(bytes.NewReader(warmAnswers[j]))
			if err == nil {
				req := &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: k}
				err = verifyWitness(res, g, req)
			}
			if err != nil || res.Size != poolRefs[j] {
				m.problem("pool instance %d: set-up answer wrong (%v, reference %d)", j, err, poolRefs[j])
			}
		}
		for i, s := range m.samples {
			refs[i] = poolRefs[m.reqs[s.req].pool]
		}
	}

	m.answers = make([]answer, len(m.samples))
	err := forEach(len(m.samples), func(i int) error {
		s, a := m.samples[i], &m.answers[i]
		if s.err != nil || s.status != http.StatusOK {
			a.err = fmt.Errorf("status %d: %v: %s", s.status, s.err, s.body)
			return nil
		}
		req, err := api.DecodeSolveRequest(bytes.NewReader(m.reqs[s.req].body))
		if err != nil {
			return err
		}
		g, err := req.Graph.Build()
		if err != nil {
			return err
		}
		if a.res, a.err = api.DecodeSolveResult(bytes.NewReader(s.body)); a.err != nil {
			return nil
		}
		if a.err = verifyWitness(a.res, g, req); a.err != nil {
			return nil
		}
		ref := refs[i]
		if pool == nil {
			if ref, err = wl.reference(g, req.K); err != nil {
				return err
			}
		}
		if a.res.Valid == nil || *a.res.Valid {
			a.quality = float64(a.res.Size) / float64(ref)
		}
		switch {
		case a.res.Size > ref:
			a.err = fmt.Errorf("size %d exceeds the reference optimum %d", a.res.Size, ref)
		case a.res.Size < ref && !wl.approx:
			a.err = fmt.Errorf("size %d below the reference optimum %d", a.res.Size, ref)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, a := range m.answers {
		if a.err != nil {
			m.failed++
			if m.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: request %d failed: %v\n", m.samples[i].req, a.err)
			}
		}
	}
	m.checkPremises(wl)
	return nil
}

// checkPremises flags a run whose workload did not do what it is for,
// and cross-checks the work the answers report against the daemon's
// own counters.
func (m *measurement) checkPremises(wl *workload) {
	hits, misses := m.vars["server.cache.hits"], m.vars["server.cache.misses"]
	var nodes, gates, calls, vertices int64
	for _, a := range m.answers {
		if a.res != nil {
			nodes += a.res.Nodes
			gates += a.res.Gates
			calls += int64(a.res.OracleCalls)
		}
	}
	for _, s := range m.samples {
		vertices += int64(m.reqs[s.req].n)
	}
	switch wl.name {
	case "exact-relabel":
		if misses != 0 || hits != int64(len(m.samples)) {
			m.problem("cache hit ratio is not 1: %d hits, %d misses, %d requests", hits, misses, len(m.samples))
		}
		if n := m.vars["fastoracle.bb.nodes"]; n != 0 {
			m.problem("a cache-hit workload ran %d search nodes", n)
		}
	case "exact-cold", "exact-sparse":
		if hits != 0 {
			m.problem("a cache-miss workload hit the cache %d times", hits)
		}
		if n := m.vars["fastoracle.bb.nodes"]; n != nodes {
			m.problem("answers report %d search nodes, the daemon counted %d", nodes, n)
		}
	case "quantum-paper":
		if hits != 0 {
			m.problem("a cache-miss workload hit the cache %d times", hits)
		}
		if g, c := m.vars["core.qmkp.gates"], m.vars["core.qmkp.oracle_calls"]; g != gates || c != calls {
			m.problem("answers report %d gates / %d oracle calls, the daemon counted %d / %d", gates, calls, g, c)
		}
	}
	if wl.name == "exact-sparse" {
		// "Tiny": at most one vertex in a hundred survives the peel.
		if kn := m.vars["reduce.kernel_n"]; kn*100 > vertices {
			m.problem("kernel kept %d of %d vertices; the sparse workload expects it (nearly) empty", kn, vertices)
		}
	}
}

// verifyWitness checks a reply against its request: no error, a witness
// of exactly the claimed size made of distinct vertices in range, and a
// k-plex — or, for qaMKP, a valid flag that tells the truth about it.
func verifyWitness(res *api.SolveResult, g *graph.Graph, req *api.SolveRequest) error {
	if res.Error != "" {
		return fmt.Errorf("daemon error %s: %s", res.ErrorKind, res.Error)
	}
	if res.Algo != req.Algo || res.K != req.K {
		return fmt.Errorf("reply is for %s k=%d, request was %s k=%d", res.Algo, res.K, req.Algo, req.K)
	}
	if len(res.Set) != res.Size {
		return fmt.Errorf("witness has %d vertices, claimed size %d", len(res.Set), res.Size)
	}
	set := make([]int, len(res.Set))
	seen := make(map[int]bool, len(res.Set))
	for i, v := range res.Set {
		if v < 1 || v > g.N() || seen[v] {
			return fmt.Errorf("witness vertex %d repeated or outside 1..%d", v, g.N())
		}
		seen[v] = true
		set[i] = v - 1
	}
	plex := g.IsKPlex(set, req.K)
	if req.Algo == api.AlgoQAMKP {
		if res.Valid == nil || *res.Valid != plex {
			return fmt.Errorf("valid flag %v, but the witness is a k-plex: %v", res.Valid, plex)
		}
		return nil
	}
	if !plex {
		return fmt.Errorf("witness of size %d is not a %d-plex", res.Size, req.K)
	}
	return nil
}

// forEach runs f(0..n-1) through the repository's worker pool (the
// daemon is idle or stopped while it runs) and joins the errors.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = f(i)
		}
	})
	return errors.Join(errs...)
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// throughputBlocks is the number of consecutive slices of the timed
// phase whose median throughput is reported: a burst of hypervisor
// steal slows one or two slices, not the median.
const throughputBlocks = 10

// times returns the time metrics, each set-up scaled by refScale of the
// reference loops just before it, and each request's share of the timed
// phase by refScale of the block before it was sent, both raised to the
// power share (see calibrate.go). With share 0 they are the times as
// measured here.
//
// Throughput is the median over throughputBlocks equal-count slices of
// the timed phase of the completed requests per second, leaving out the
// pauses for the reference loop. The daemon's CPU time is scaled by the
// mean of the requests' scales, weighted by their latency, since the
// daemon spends it while it serves them.
func (m *measurement) times(share float64) map[string]float64 {
	scale := func(refMs float64) float64 { return math.Pow(refScale(refMs), share) }
	setups := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setups[i] = s * scale(m.setupRef[i])
	}
	n := len(m.samples)
	lat := make([]float64, n)
	busy := make([]float64, n) // seconds until the next request, pause left out
	var latScaled, latSum float64
	for i, s := range m.samples {
		f := scale(s.ref)
		lat[i] = float64(s.latency) / float64(time.Millisecond) * f
		next := m.elapsed
		if i+1 < n {
			next = m.samples[i+1].sent - m.samples[i+1].paused
		}
		busy[i] = (next - s.sent).Seconds() * f
		latScaled += float64(s.latency) * f
		latSum += float64(s.latency)
	}
	blocks := min(throughputBlocks, n)
	rates := make([]float64, blocks)
	for b := range rates {
		done, dur := 0, 0.0
		for i := b * n / blocks; i < (b+1)*n/blocks; i++ {
			if m.answers[i].err == nil {
				done++
			}
			dur += busy[i]
		}
		rates[b] = float64(done) / dur
	}
	cpuMs := float64(m.cpu) / float64(time.Millisecond) * latScaled / latSum
	return map[string]float64{
		"setup_s":          quantile(setups, 0.5),
		"latency_p50_ms":   quantile(lat, 0.5),
		"throughput_rps":   quantile(rates, 0.5),
		"cpu_ms_per_solve": cpuMs / float64(max(n-m.failed, 1)),
	}
}

// endToEnd derives the untraced run's metrics, with every time scaled to
// the reference host.
func (m *measurement) endToEnd(wl *workload) map[string]metric {
	t := m.times(wl.hostShare)
	completed := len(m.samples) - m.failed
	quality := 0.0
	for _, a := range m.answers {
		quality += a.quality
	}
	return map[string]metric{
		"setup_s":          {t["setup_s"], "s"},
		"latency_p50_ms":   {t["latency_p50_ms"], "ms"},
		"throughput_rps":   {t["throughput_rps"], "1/s"},
		"cpu_ms_per_solve": {t["cpu_ms_per_solve"], "ms"},
		"peak_rss_mb":      {float64(m.peakRSS) / 1e6, "MB"},
		"quality_ratio":    {quality / float64(len(m.samples)), "ratio"},
		"success_ratio":    {float64(completed) / float64(len(m.samples)), "ratio"},
	}
}
