package kplex_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/kplex"
)

// TestBBOptPreCanceled: a context canceled before the first wave still
// hands back the greedy incumbent alongside an error wrapping both
// kplex.ErrCanceled and context.Canceled — the contract cmd/qmkp maps
// to exit code 5.
func TestBBOptPreCanceled(t *testing.T) {
	g := graph.Gnm(30, 120, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := kplex.BBOpt(ctx, g, 2, kplex.BBOptions{DisableKernel: true})
	if !errors.Is(err, kplex.ErrCanceled) {
		t.Fatalf("pre-canceled BBOpt returned %v, want kplex.ErrCanceled in the chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled BBOpt returned %v, want context.Canceled as the cause", err)
	}
	if res.Size == 0 || !g.IsKPlex(res.Set, 2) {
		t.Errorf("canceled BBOpt returned %v (size %d), want the greedy incumbent", res.Set, res.Size)
	}
	seed := kplex.Greedy(g, 2)
	if res.Size != len(seed) {
		t.Errorf("canceled BBOpt reports size %d, want the greedy seed's %d", res.Size, len(seed))
	}
}

// TestBBOptCtxMatchesBackground: threading an un-canceled context
// through the kernel pipeline must not perturb the deterministic result.
func TestBBOptCtxMatchesBackground(t *testing.T) {
	g := graph.Gnm(36, 180, 11)
	want, err := kplex.BBOpt(context.Background(), g, 2, kplex.BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := kplex.BBOpt(ctx, g, 2, kplex.BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size || got.Nodes != want.Nodes {
		t.Errorf("BBOpt under a live context diverged: got size %d nodes %d, want size %d nodes %d",
			got.Size, got.Nodes, want.Size, want.Nodes)
	}
}
