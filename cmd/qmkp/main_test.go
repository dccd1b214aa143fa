package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
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
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args+" -seed 1 -reduce"), &out); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v\n%s", tc.args, err, tc.want, out.String())
		}
	}
}
