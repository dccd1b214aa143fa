package kplex

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
	order, _ := reduce.DegeneracyOrder(g)
	full, err := branchBound(context.Background(), g, 2, order, 0)
	if err != nil {
		t.Fatalf("uncanceled run errored: %v", err)
	}

	baseline := runtime.NumGoroutine()
	ctx := newCountdownCtx(3)
	res, err := branchBound(ctx, g, 2, order, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-wave cancel returned %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "root tasks") {
		t.Errorf("error does not report wave progress: %v", err)
	}
	if len(res.Set) == 0 || !g.IsKPlex(res.Set, 2) {
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
// wave still returns the preamble incumbent — the size floor when one is
// given (with an empty set: the caller holds that witness), else a
// single vertex — with the cancellation error.
func TestBranchBoundPreCanceled(t *testing.T) {
	g := graph.Gnm(20, 60, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	order, _ := reduce.DegeneracyOrder(g)
	for _, floor := range []int{0, 2} {
		res, err := branchBound(ctx, g, 2, order, floor)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("floor %d: pre-canceled run returned %v, want context.Canceled in the chain", floor, err)
		}
		wantSize, wantSet := floor, 0
		if floor == 0 {
			wantSize, wantSet = 1, 1
		}
		if res.Size != wantSize || len(res.Set) != wantSet {
			t.Errorf("floor %d: pre-canceled run reports size %d set %v, want size %d with %d members",
				floor, res.Size, res.Set, wantSize, wantSet)
		}
		if res.Nodes != 1 {
			t.Errorf("floor %d: pre-canceled run accounts %d nodes, want the implicit root only", floor, res.Nodes)
		}
	}
}
