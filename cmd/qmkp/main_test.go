package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// solutionLine parses run's "solution: size N, set [a b …] …" line into N
// and the 0-based set.
func solutionLine(t *testing.T, out string) (int, []int) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "solution: size ") {
			continue
		}
		var size int
		if _, err := fmt.Sscanf(line, "solution: size %d,", &size); err != nil {
			t.Fatalf("bad solution line %q: %v", line, err)
		}
		var set []int
		for _, f := range strings.Fields(line[strings.Index(line, "[")+1 : strings.Index(line, "]")]) {
			var v int
			if _, err := fmt.Sscan(f, &v); err != nil {
				t.Fatalf("bad member %q in %q: %v", f, line, err)
			}
			set = append(set, v-1)
		}
		return size, set
	}
	t.Fatalf("no solution line in:\n%s", out)
	return 0, nil
}

// Under -reduce the answer must be a k-plex of the input graph in its own
// ids, never smaller than the greedy witness the kernel was pruned
// against, with the printed size equal to the printed set.
func TestReduceAnswersInOriginalIDs(t *testing.T) {
	for _, tc := range []struct {
		args    string
		n, m, k int
		want    int // exact optimum, or the qtkp target T
	}{
		// Greedy finds the optimum 5; nothing survives co-pruning for 6.
		{"-algo bb -k 3 -gen 13,20", 13, 20, 3, 5},
		{"-algo bs -k 3 -gen 13,20", 13, 20, 3, 5},
		{"-algo naive -k 3 -gen 13,20", 13, 20, 3, 5},
		{"-algo qmkp -k 3 -gen 13,20", 13, 20, 3, 5},
		// Greedy finds the optimum 8; the kernel's best is 7.
		{"-algo bb -k 2 -gen 21,131", 21, 131, 2, 8},
		// qtkp prunes for T itself, so the 5-plex survives.
		{"-algo qtkp -k 3 -T 5 -gen 13,20", 13, 20, 3, 5},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args+" -seed 1 -reduce"), &out); err != nil {
			t.Fatalf("%s: %v\n%s", tc.args, err, out.String())
		}
		size, set := solutionLine(t, out.String())
		g := graph.Gnm(tc.n, tc.m, 1)
		if size != tc.want || len(set) != size || !g.IsKPlex(set, tc.k) {
			t.Errorf("%s: printed size %d, set %v (valid %d-plex: %v), want a %d-plex of size %d\n%s",
				tc.args, size, set, tc.k, g.IsKPlex(set, tc.k), tc.k, tc.want, out.String())
		}
	}
}

// qtkp with fewer than T survivors is a verified absence, and -reduce
// has no n-club rule to offer qnclub.
func TestReduceErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		want error
	}{
		{"-algo qtkp -k 3 -T 6 -gen 13,20", core.ErrInfeasible},
		{"-algo qnclub -gen 13,20", core.ErrBadSpec},
		{"-algo bb -k 0 -gen 13,20", core.ErrBadSpec},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args+" -seed 1 -reduce"), &out); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v\n%s", tc.args, err, tc.want, out.String())
		}
	}
}

// -reduce shrinks the input but never changes whether a request is
// answered: k and T are checked against the input graph before
// co-pruning, so every (algo, k, T) exits in the same class with and
// without it. The gate and anneal paths refuse k > n; bb, greedy, bs and
// tabu accept it.
func TestReduceKeepsExitClass(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-algo qmkp -k 20", 2},
		{"-algo qamkp -k 20", 2},
		{"-algo qtkp -k 20 -T 3", 2},
		{"-algo qtkp -k 2 -T 50", 2},
		{"-algo qmkp -k 2", 0},
		{"-algo qamkp -k 2", 0},
		{"-algo qtkp -k 2 -T 4", 0},
		{"-algo qtkp -k 2 -T 7", 4},
		{"-algo bb -k 20", 0},
		{"-algo greedy -k 20", 0},
		{"-algo bs -k 20", 0},
		{"-algo tabu -k 20", 0},
	} {
		var codes [2]int
		for i, extra := range []string{"", " -reduce"} {
			var out bytes.Buffer
			codes[i] = api.ExitCode(run(strings.Fields(tc.args+" -gen 10,23 -seed 5"+extra), &out))
		}
		if codes[0] != tc.want || codes[1] != codes[0] {
			t.Errorf("%s: exit %d without -reduce, %d with it; want %d both ways", tc.args, codes[0], codes[1], tc.want)
		}
	}
}

// Bad inputs are bad requests (exit 2), never a panic or an answer: a
// -gen edge count outside [0, n(n-1)/2], and k < 1 for every k-plex
// algorithm.
func TestBadInputErrors(t *testing.T) {
	for _, args := range []string{
		"-algo bb -gen 3,10",
		"-algo bb -gen 3,-1",
		"-algo bb -gen -2,0",
		"-algo greedy -k 0 -gen 13,20",
		"-algo tabu -k 0 -gen 13,20",
		"-algo bb -k 0 -gen 13,20",
		"-algo bs -k 0 -gen 13,20",
		"-algo naive -k 0 -gen 13,20",
		"-algo qmkp -k 0 -gen 13,20",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args+" -seed 1"), &out)
		if !errors.Is(err, core.ErrBadSpec) || api.ExitCode(err) != 2 {
			t.Errorf("%s: err = %v (exit %d), want %v (exit 2)\n%s", args, err, api.ExitCode(err), core.ErrBadSpec, out.String())
		}
		if strings.Contains(out.String(), "solution:") {
			t.Errorf("%s: printed an answer:\n%s", args, out.String())
		}
	}
}

// With flags and -json-out -, every wire algorithm prints exactly the
// document server.Execute gives the equivalent wire request (flag
// defaults are the wire defaults), errors included: one configuration
// per algorithm name, whichever front end asks.
func TestJSONOutMatchesExecute(t *testing.T) {
	g := graph.Gnm(10, 23, 5)
	for _, tc := range []struct {
		args string
		req  api.SolveRequest
		want error
	}{
		{"-algo qmkp", api.SolveRequest{Algo: api.AlgoQMKP}, nil},
		{"-algo qtkp -T 4", api.SolveRequest{Algo: api.AlgoQTKP, T: 4}, nil},
		{"-algo qtkp -T 7", api.SolveRequest{Algo: api.AlgoQTKP, T: 7}, core.ErrInfeasible},
		{"-algo qamkp", api.SolveRequest{Algo: api.AlgoQAMKP}, nil},
		{"-algo bb", api.SolveRequest{Algo: api.AlgoBB}, nil},
		{"-algo greedy", api.SolveRequest{Algo: api.AlgoGreedy}, nil},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args+" -k 2 -gen 10,23 -seed 5 -json-out -"), &out)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.args, err, tc.want)
		}
		req := tc.req
		req.V, req.K, req.Seed = api.Version, 2, 5
		res, xerr := server.Execute(context.Background(), &req, g, obs.Obs{})
		res.SetError(xerr)
		want, merr := json.MarshalIndent(res, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if got := out.String(); got != string(want)+"\n" {
			t.Errorf("%s: printed\n%s\nwant Execute's\n%s", tc.args, got, want)
		}
	}
}

// Instances past an exhaustive algorithm's sweep are refused as too
// large (exit 3) before any table is built: qnclub at the gate-model
// cap, naive past its 25 vertices.
func TestSizeRefusals(t *testing.T) {
	for _, args := range []string{
		"-algo qnclub -club 2 -gen 25,60",
		"-algo qnclub -club 2 -gen 64,300",
		"-algo naive -k 2 -gen 26,40",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args+" -seed 1"), &out)
		if !errors.Is(err, core.ErrTooLarge) || api.ExitCode(err) != 3 {
			t.Errorf("%s: err = %v (exit %d), want %v (exit 3)\n%s", args, err, api.ExitCode(err), core.ErrTooLarge, out.String())
		}
		if strings.Contains(out.String(), "solution:") {
			t.Errorf("%s: printed an answer:\n%s", args, out.String())
		}
	}
}
