package kplex_test

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/obs"
)

// exactWork is the checked-in work-count table of the exact path: BBOpt's
// Size and Nodes and its kernel's reduce.kernel_n and reduce.peeled
// counters on every checked-in instance at k = 1..4. The counts are
// deterministic at any worker count. The nodes before the root-task and
// partition bounds, for comparison: gnm100 283, 2 831, 13 860, 3 442;
// gnm200 747, 20 803, 358 104, 6 336 172; planted150 840, 9 657, 1,
// 8 876.
var exactWork = []struct {
	file            string
	k, size         int
	nodes           int64
	kernelN, peeled int64
}{
	{"gnm100", 1, 3, 8, 95, 5},
	{"gnm100", 2, 5, 2, 79, 21},
	{"gnm100", 3, 6, 2627, 95, 5},
	{"gnm100", 4, 7, 368, 79, 21},
	{"gnm200", 1, 4, 2, 188, 12},
	{"gnm200", 2, 5, 195, 197, 3},
	{"gnm200", 3, 5, 29622, 197, 3},
	{"gnm200", 4, 6, 241061, 197, 3},
	{"planted150", 1, 8, 8, 146, 4},
	{"planted150", 2, 9, 28, 146, 4},
	{"planted150", 3, 12, 1, 0, 150},
	{"planted150", 4, 12, 12, 144, 6},
}

// rawWork pins the kernel-disabled reference search
// (BBOptions.DisableKernel): Size and Nodes on every checked-in instance
// at k = 1..4, where the raw search finishes in about half a second at
// worst, plus a six-vertex graph that is itself a 2-plex (K6 minus a
// perfect matching). There the greedy witness is the whole graph, and
// the raw search still runs its one part — the root node the kernel
// path's empty kernel skips.
var rawWork = []struct {
	file  string // checked-in instance, or "k6-matching"
	k     int
	size  int
	nodes int64
}{
	{"gnm100", 1, 3, 8},
	{"gnm100", 2, 5, 2},
	{"gnm100", 3, 6, 2668},
	{"gnm100", 4, 7, 368},
	{"gnm200", 1, 4, 2},
	{"gnm200", 2, 5, 195},
	{"gnm200", 3, 5, 29622},
	{"gnm200", 4, 6, 241061},
	{"planted150", 1, 8, 8},
	{"planted150", 2, 9, 28},
	{"planted150", 3, 12, 2},
	{"planted150", 4, 12, 12},
	{"k6-matching", 2, 6, 2},
}

// TestExactWorkCountRatchet is the work-count gate of the exact path: a
// size that changes is a wrong answer, a count that rises is a
// regression, and a count that falls must be written into the table in
// the same change, so the table only ever ratchets down.
func TestExactWorkCountRatchet(t *testing.T) {
	for _, w := range exactWork {
		g, err := graph.ReadFile("../graph/testdata/" + w.file + ".clq")
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		res, err := kplex.BBOpt(context.Background(), g, w.k, kplex.BBOptions{Obs: obs.Obs{Metrics: m}})
		if err != nil {
			t.Fatalf("%s k=%d: %v", w.file, w.k, err)
		}
		counters, _ := m.Snapshot()
		if res.Size != w.size {
			t.Errorf("%s k=%d: size %d, table says %d", w.file, w.k, res.Size, w.size)
		}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"nodes", res.Nodes, w.nodes},
			{"reduce.kernel_n", counters["reduce.kernel_n"], w.kernelN},
			{"reduce.peeled", counters["reduce.peeled"], w.peeled},
		} {
			if c.got != c.want {
				t.Errorf("%s k=%d: %s is %d, the table says %d (more work is a regression; less goes into the table)",
					w.file, w.k, c.name, c.got, c.want)
			}
		}
	}
	for _, w := range rawWork {
		var g *graph.Graph
		if w.file == "k6-matching" {
			g = graph.FromEdges(6, [][2]int{
				{0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
				{2, 4}, {2, 5}, {3, 4}, {3, 5},
			})
		} else {
			var err error
			if g, err = graph.ReadFile("../graph/testdata/" + w.file + ".clq"); err != nil {
				t.Fatal(err)
			}
		}
		res, err := kplex.BBOpt(context.Background(), g, w.k, kplex.BBOptions{DisableKernel: true})
		if err != nil {
			t.Fatalf("raw %s k=%d: %v", w.file, w.k, err)
		}
		if res.Size != w.size {
			t.Errorf("raw %s k=%d: size %d, table says %d", w.file, w.k, res.Size, w.size)
		}
		if res.Nodes != w.nodes {
			t.Errorf("raw %s k=%d: nodes is %d, the table says %d (more work is a regression; less goes into the table)",
				w.file, w.k, res.Nodes, w.nodes)
		}
	}
}
