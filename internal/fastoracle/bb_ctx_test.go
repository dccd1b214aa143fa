package fastoracle

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/reduce"
)

// countdownCtx reports cancellation once its Err method has been
// consulted more than n times — a deterministic stand-in for a deadline
// expiring between two waves of the branch-and-bound schedule.
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

// TestBranchBoundCancelMidWave cancels a multi-wave search after a
// fixed number of wave-boundary polls: the partial result must be a
// verified k-plex no worse than the single-vertex floor, the error must
// wrap context.Canceled, and — the regression this test exists for — no
// pool goroutine may outlive the canceled call.
func TestBranchBoundCancelMidWave(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	g := graph.Gnm(40, 200, 7)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := reduce.DegeneracyOrder(g)
	full, err := e.BranchBound(context.Background(), BBOptions{Order: order})
	if err != nil {
		t.Fatalf("uncanceled run errored: %v", err)
	}

	baseline := runtime.NumGoroutine()
	ctx := newCountdownCtx(3)
	res, err := e.BranchBound(ctx, BBOptions{Order: order})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-wave cancel returned %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "root tasks") {
		t.Errorf("error does not report wave progress: %v", err)
	}
	if len(res.Set) == 0 || !e.KPlexSet(res.Set) {
		t.Errorf("partial result %v is not a verified k-plex", res.Set)
	}
	if res.Size != len(res.Set) {
		t.Errorf("partial result size %d does not match witness %v", res.Size, res.Set)
	}
	if res.Size > full.Size {
		t.Errorf("partial size %d exceeds the optimum %d", res.Size, full.Size)
	}
	if res.Nodes >= full.Nodes {
		t.Errorf("canceled run visited %d nodes, full run %d — the cancel did not cut the schedule short",
			res.Nodes, full.Nodes)
	}

	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after mid-wave cancel: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestBranchBoundPreCanceled: a context canceled before the first
// wave still returns the preamble incumbent — the seed when it
// verifies, else a single vertex — with the cancellation error.
func TestBranchBoundPreCanceled(t *testing.T) {
	g := graph.Gnm(20, 60, 3)
	e, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seed := []int{0, 1} // any pair is a 2-plex: each member tolerates one non-neighbour
	order, _ := reduce.DegeneracyOrder(g)
	res, err := e.BranchBound(ctx, BBOptions{Seed: seed, Order: order})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled in the chain", err)
	}
	if res.Size != len(seed) {
		t.Errorf("pre-canceled run reports size %d, want the seed's %d", res.Size, len(seed))
	}
	if res.Nodes != 1 {
		t.Errorf("pre-canceled run accounts %d nodes, want the implicit root only", res.Nodes)
	}
}
