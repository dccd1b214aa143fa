package oracle

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// oracleDigest is circuitDigest plus the threshold, wires and gate index
// an oracle evaluates with.
func oracleDigest(o *Oracle) string {
	return fmt.Sprintf("%s T=%d fwdEnd=%d cplex=%d size=%d out=%d",
		circuitDigest(o), o.T, o.fwdEnd, o.cplexQ, o.sizeQ, o.outQ)
}

// One set of compiled stages answers thresholds in any order: each Build
// equals a fresh BuildOpts for its T, and no later Build changes an
// oracle handed out earlier.
func TestStagesBuildOrder(t *testing.T) {
	g := graph.Gnm(14, 45, 1)
	down := []int{14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	up := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	repeated := []int{5, 5, 6, 5, 6, 6, 1, 14, 5}
	for _, compact := range []bool{false, true} {
		opts := Options{CompactCounting: compact}
		s, err := CompileStages(g, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		var built []*Oracle
		var digests []string
		for _, order := range [][]int{down, up, repeated} {
			for _, T := range order {
				o, err := s.Build(T)
				if err != nil {
					t.Fatalf("compact=%v T=%d: %v", compact, T, err)
				}
				fresh, err := BuildOpts(g, 2, T, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := oracleDigest(o), oracleDigest(fresh); got != want {
					t.Errorf("compact=%v T=%d: Build differs from BuildOpts:\n %v\n %v", compact, T, got, want)
				}
				built = append(built, o)
				digests = append(digests, oracleDigest(o))
			}
		}
		for i, o := range built {
			if got := oracleDigest(o); got != digests[i] {
				t.Errorf("compact=%v: oracle %d (T=%d) changed after later builds", compact, i, o.T)
			}
		}
	}
}

// Build is documented safe for concurrent use: builds of every threshold
// from four workers at once (run under -race) all equal BuildOpts.
func TestStagesBuildConcurrent(t *testing.T) {
	g := graph.Gnm(14, 45, 2)
	s, err := CompileStages(g, 2, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	want := make([]string, n+1)
	for T := 1; T <= n; T++ {
		o, err := BuildOpts(g, 2, T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[T] = oracleDigest(o)
	}
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	got := make([]string, 4*n)
	errs := make([]error, 4*n)
	parallel.For(4*n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o, err := s.Build(1 + i%n)
			if err != nil {
				errs[i] = err
				continue
			}
			got[i] = oracleDigest(o)
		}
	})
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("T=%d: %v", 1+i%n, errs[i])
		}
		if got[i] != want[1+i%n] {
			t.Errorf("T=%d: concurrent Build differs from BuildOpts", 1+i%n)
		}
	}
}
