// Command qmkp-load is the service smoke check: it drives a running (or
// freshly spawned) qmkpd end to end and fails loudly on any deviation.
// It streams one known instance and asserts the event feed ends in a
// final frame with the expected optimum, resubmits a relabelling and
// asserts it is answered from the cache with a valid k-plex, then checks
// /debug/vars and the trace download. A small JSON report goes to -out.
//
// -spawn starts the given qmkpd binary on a free loopback port for the
// duration of the run (the CI path; `make serve-smoke`). Service latency
// and throughput are measured by the benchmark under _bench/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qmkp-load:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		base      = flag.String("addr", "http://127.0.0.1:7477", "base URL of a running qmkpd (ignored with -spawn)")
		spawnBin  = flag.String("spawn", "", "path to a qmkpd binary to start on a free loopback port for this run")
		algo      = flag.String("algo", "bb", "wire algorithm of the requests")
		k         = flag.Int("k", 2, "k-plex parameter")
		seed      = flag.Int64("seed", 1, "request seed")
		graphFile = flag.String("graph", "internal/graph/testdata/gnm100.clq", "instance file")
		expect    = flag.Int("expect", 5, "expected optimum size (0 = don't check)")
		out       = flag.String("out", "", "write the JSON report here ('' or '-' = stdout)")
	)
	flag.Parse()

	if *spawnBin != "" {
		url, kill, err := spawn(*spawnBin)
		if err != nil {
			return err
		}
		defer kill()
		*base = url
	}
	if err := waitHealthy(*base, 5*time.Second); err != nil {
		return err
	}

	report, err := smoke(*base, *graphFile, *algo, *k, *expect, *seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" || *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// spawn starts bin on a free loopback port and returns its base URL
// and a terminator that delivers SIGINT and waits for the graceful
// drain to finish.
func spawn(bin string) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	addr := ln.Addr().String()
	// Free the probed port for the child. The gap between Close and the
	// daemon's own Listen is the usual ephemeral-port race; loopback +
	// immediate restart makes it negligible for a smoke run.
	if err := ln.Close(); err != nil {
		return "", nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	kill := func() {
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait()
	}
	return "http://" + addr, kill, nil
}

// waitHealthy polls /healthz until it answers 200 or the budget runs
// out.
func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy within %v: %v", base, budget, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// permute returns g with vertices relabelled by the seeded permutation
// — the same instance up to isomorphism, different on the wire.
func permute(g api.Graph, seed int64) api.Graph {
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
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out
}

// postSolve sends one request and decodes the JSON result.
func postSolve(base string, req *api.SolveRequest) (*api.SolveResult, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	res, err := api.DecodeSolveResult(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	return res, resp.StatusCode, nil
}

// postStream sends one streaming request and returns every event frame.
func postStream(base string, req *api.SolveRequest) ([]*api.Event, error) {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	var events []*api.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		ev, err := api.DecodeEvent([]byte(strings.TrimPrefix(line, "data: ")))
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// debugVars fetches and decodes /debug/vars.
func debugVars(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Counters, nil
}

// isKPlex verifies a 1-based witness against a wire graph: every member
// must be adjacent to at least |S|-k others in S.
func isKPlex(g api.Graph, set []int, k int) bool {
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

// smoke is the end-to-end CI check; it returns a small report document
// and fails loudly on any deviation.
func smoke(base, graphFile, algo string, k, expect int, seed int64) (any, error) {
	g, err := graph.ReadFile(graphFile)
	if err != nil {
		return nil, err
	}
	wire := api.FromGraph(g)

	// 1. Streamed solve: the event feed must open with accepted, carry a
	// progressive answer (greedy seed), and end in a final frame with
	// the known optimum.
	events, err := postStream(base, &api.SolveRequest{V: api.Version, Algo: algo, K: k, Graph: wire, Seed: seed})
	if err != nil {
		return nil, err
	}
	if len(events) < 2 || events[0].Type != api.EventAccepted {
		return nil, fmt.Errorf("smoke: stream did not open with an accepted frame (%d events)", len(events))
	}
	sawSeed := false
	for _, ev := range events {
		if ev.Type == api.EventGreedySeed {
			sawSeed = true
		}
	}
	if !sawSeed {
		return nil, fmt.Errorf("smoke: no greedy_seed frame in the stream")
	}
	last := events[len(events)-1]
	if last.Type != api.EventFinal || last.Result == nil {
		return nil, fmt.Errorf("smoke: stream did not end in a final frame (got %q)", last.Type)
	}
	if expect > 0 && last.Result.Size != expect {
		return nil, fmt.Errorf("smoke: final size %d, want %d", last.Result.Size, expect)
	}
	if !isKPlex(wire, last.Result.Set, k) {
		return nil, fmt.Errorf("smoke: streamed witness %v is not a %d-plex", last.Result.Set, k)
	}

	// 2. The trace of that solve must be downloadable.
	resp, err := http.Get(base + "/v1/trace/" + last.Result.ID)
	if err != nil {
		return nil, err
	}
	traceOK := resp.StatusCode == http.StatusOK
	resp.Body.Close()
	if !traceOK {
		return nil, fmt.Errorf("smoke: trace download for %s: status %d", last.Result.ID, resp.StatusCode)
	}

	// 3. A relabelled resubmission must be served from the cache, with
	// the witness mapped onto the new labels.
	perm := permute(wire, seed+1)
	res, status, err := postSolve(base, &api.SolveRequest{V: api.Version, Algo: algo, K: k, Graph: perm, Seed: seed})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK || res.Error != "" {
		return nil, fmt.Errorf("smoke: permuted resubmission: status %d, error %q", status, res.Error)
	}
	if !res.Cached {
		return nil, fmt.Errorf("smoke: permuted resubmission was not served from the cache")
	}
	if expect > 0 && res.Size != expect {
		return nil, fmt.Errorf("smoke: cached size %d, want %d", res.Size, expect)
	}
	if !isKPlex(perm, res.Set, k) {
		return nil, fmt.Errorf("smoke: cached witness %v is not a %d-plex under the new labels", res.Set, k)
	}

	// 4. The counters must agree.
	counters, err := debugVars(base)
	if err != nil {
		return nil, err
	}
	if counters["server.cache.hits"] < 1 {
		return nil, fmt.Errorf("smoke: server.cache.hits = %d, want ≥ 1", counters["server.cache.hits"])
	}
	return map[string]any{
		"graph":      graphFile,
		"algo":       algo,
		"k":          k,
		"size":       last.Result.Size,
		"events":     len(events),
		"cache_hits": counters["server.cache.hits"],
		"ok":         true,
	}, nil
}
