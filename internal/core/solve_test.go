package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// cancelOnSpanEnd is an Observer that cancels a context the first time a
// span with the given name ends — a deterministic way to interrupt a
// solve at an exact point of the probe tree.
type cancelOnSpanEnd struct {
	name   string
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnSpanEnd) OnSpanStart(obs.Span) {}
func (c *cancelOnSpanEnd) OnEvent(obs.Event)    {}
func (c *cancelOnSpanEnd) OnSpanEnd(s obs.Span) {
	if !c.fired && s.Name == c.name {
		c.fired = true
		c.cancel()
	}
}

// countdownCtx reports cancellation once its Err method has been
// consulted more than n times — a deterministic stand-in for a cancel
// arriving mid-shot-batch.
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

func TestSolveBadSpecSentinels(t *testing.T) {
	ctx := context.Background()
	g := graph.Example6()
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"nil graph", func() error { _, err := SolveMKP(ctx, nil, Spec{Algo: AlgoMKP, K: 2}); return err }, ErrBadSpec},
		{"k too small", func() error { _, err := SolveMKP(ctx, g, Spec{Algo: AlgoMKP, K: 0}); return err }, ErrBadSpec},
		{"k too large", func() error { _, err := SolveMKP(ctx, g, Spec{Algo: AlgoMKP, K: 7}); return err }, ErrBadSpec},
		{"T too small", func() error { _, err := SolveTKP(ctx, g, Spec{Algo: AlgoTKP, K: 2, T: 0}); return err }, ErrBadSpec},
		{"T too large", func() error { _, err := SolveTKP(ctx, g, Spec{Algo: AlgoTKP, K: 2, T: 7}); return err }, ErrBadSpec},
		{"unknown sampler", func() error {
			_, err := SolveAnneal(ctx, g, Spec{Algo: AlgoAnneal, K: 2, Anneal: &AnnealOptions{Sampler: "bogus"}})
			return err
		}, ErrBadSpec},
		{"penalty R at most 1", func() error {
			_, err := SolveAnneal(ctx, g, Spec{Algo: AlgoAnneal, K: 2, Anneal: &AnnealOptions{R: 1}})
			return err
		}, ErrBadSpec},
		{"gate cap", func() error {
			_, err := SolveMKP(ctx, graph.Gnm(MaxGateVertices+1, 40, 1), Spec{Algo: AlgoMKP, K: 2})
			return err
		}, ErrTooLarge},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

func TestSolveTKPInfeasibleSentinel(t *testing.T) {
	g := graph.Example6()
	res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 5})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SolveTKP on an infeasible threshold returned %v, want ErrInfeasible", err)
	}
	if res.Found {
		t.Error("infeasible probe reported Found")
	}
	if res.Gates == 0 || res.OracleCalls == 0 {
		t.Errorf("absence probe reported no cost (gates=%d, oracle calls=%d); a real run pays the full schedule", res.Gates, res.OracleCalls)
	}
	// The compatibility wrapper keeps the original convention: verified
	// absence is (Found=false, nil error).
	wres, werr := QTKP(g, 2, 5, nil)
	if werr != nil || wres.Found {
		t.Errorf("QTKP wrapper: got (found=%v, err=%v), want (false, nil)", wres.Found, werr)
	}
}

func TestSolveMKPCancelMidSearch(t *testing.T) {
	g := graph.Example6()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ob := &cancelOnSpanEnd{name: "qmkp.probe", cancel: cancel}
	res, err := SolveMKP(ctx, g, Spec{Algo: AlgoMKP, K: 2, Obs: obs.Obs{Trace: obs.NewTrace(ob)}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled solve returned %v, want ErrCanceled in the chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause context.Canceled lost from the chain: %v", err)
	}
	// The first probe (T=4 on the 6-vertex example) completed before the
	// cancel took effect at the next probe boundary, so the best-so-far
	// answer — the optimum, as it happens — must be in the result.
	if len(res.Progress) != 1 {
		t.Fatalf("expected exactly 1 completed probe, got %d", len(res.Progress))
	}
	if res.Size != 4 || len(res.Set) != 4 {
		t.Errorf("best-so-far size = %d (set %v), want the size-4 plex of the completed probe", res.Size, res.Set)
	}
	if res.Gates == 0 || res.QPUTime == 0 {
		t.Error("canceled result lost the cost accounting of completed probes")
	}
}

func TestSolveAnnealCancelMidShots(t *testing.T) {
	g := graph.Gnm(12, 30, 2)
	const shots = 40
	mx := obs.NewMetrics()
	ctx := newCountdownCtx(3)
	res, err := SolveAnneal(ctx, g, Spec{
		Algo: AlgoAnneal, K: 3,
		Anneal: &AnnealOptions{Shots: shots, Seed: 5},
		Obs:    obs.Obs{Metrics: mx},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled anneal returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "anneal: sqa canceled") {
		t.Errorf("error does not name the interrupted stage: %v", err)
	}
	if res.Variables == 0 {
		t.Error("canceled result lost the model accounting")
	}
	counters, _ := mx.Snapshot()
	if done := counters["anneal.sqa.shots"]; done >= shots {
		t.Errorf("all %d shots completed despite cancellation (counter %d)", shots, done)
	}
}

func TestSolveWrapperEquivalence(t *testing.T) {
	g := graph.Gnm(9, 15, 3)
	wrapped, werr := QMKP(g, 2, &GateOptions{Rng: rand.New(rand.NewSource(7))})
	direct, derr := SolveMKP(context.Background(), g, Spec{
		Algo: AlgoMKP, K: 2, Gate: &GateOptions{Rng: rand.New(rand.NewSource(7))},
	})
	if werr != nil || derr != nil {
		t.Fatalf("errors: wrapper %v, direct %v", werr, derr)
	}
	wrapped.WallTime, direct.WallTime = 0, 0
	if !reflect.DeepEqual(wrapped, direct) {
		t.Errorf("QMKP and SolveMKP disagree for the same seed:\nwrapper: %+v\ndirect:  %+v", wrapped, direct)
	}
}

func TestSolveTraceDeterministicAcrossWorkers(t *testing.T) {
	restore := parallel.SetWorkers(0)
	defer parallel.SetWorkers(restore)

	var traces, dumps [][]byte
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		rec := obs.NewRecorder()
		mx := obs.NewMetrics()
		_, err := SolveMKP(context.Background(), graph.Gnm(10, 23, 5), Spec{
			Algo: AlgoMKP, K: 2,
			Gate: &GateOptions{Rng: rand.New(rand.NewSource(9))},
			Obs:  obs.Obs{Trace: obs.NewTrace(rec), Metrics: mx},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var tb, mb bytes.Buffer
		if err := rec.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		if err := mx.WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tb.Bytes())
		dumps = append(dumps, mb.Bytes())
	}
	for i := 1; i < len(traces); i++ {
		if !bytes.Equal(traces[0], traces[i]) {
			t.Errorf("trace differs between 1 worker and %d workers", []int{1, 2, 8}[i])
		}
		if !bytes.Equal(dumps[0], dumps[i]) {
			t.Errorf("metrics dump differs between 1 worker and %d workers", []int{1, 2, 8}[i])
		}
	}
	if len(traces[0]) == 0 {
		t.Fatal("empty trace — the solve emitted nothing")
	}
}

func TestSolveCancelLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveAnneal(ctx, graph.Gnm(12, 30, 2), Spec{
		Algo: AlgoAnneal, K: 3, Anneal: &AnnealOptions{Shots: 20, Seed: 1},
	}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled anneal returned %v, want ErrCanceled", err)
	}
	if _, err := SolveTKP(ctx, graph.Example6(), Spec{Algo: AlgoTKP, K: 2, T: 4}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled gate solve returned %v, want ErrCanceled", err)
	}

	// Pool workers unwind on their own schedule; poll briefly instead of
	// asserting an instantaneous count.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after canceled solves: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
