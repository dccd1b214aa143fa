package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// fastoracle.table.hits counts every table lookup a probe makes — 2^n
// per predicate sweep (quantum counting's included) plus one per
// measured mask verified — but adds them once per probe. The totals are
// pinned to the per-lookup count they replace, and metrics on or off
// leave every answer unchanged.
func TestTableHitsPinned(t *testing.T) {
	g := graph.Gnm(10, 23, 5)
	gate := func(counting bool) *GateOptions {
		return &GateOptions{Rng: rand.New(rand.NewSource(5)), QuantumCounting: counting}
	}
	mkp := func(ob obs.Obs) (any, error) {
		res, err := SolveMKP(context.Background(), g, Spec{Algo: AlgoMKP, K: 2, Gate: gate(false), Obs: ob})
		res.WallTime = 0
		return res, err
	}
	tkp := func(counting bool) func(obs.Obs) (any, error) {
		return func(ob obs.Obs) (any, error) {
			res, err := SolveTKP(context.Background(), g, Spec{Algo: AlgoTKP, K: 2, T: 4, Gate: gate(counting), Obs: ob})
			res.WallTime = 0
			return res, err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(obs.Obs) (any, error)
		want int64
	}{
		{"qmkp", mkp, 4100},
		{"qtkp", tkp(false), 1025},
		{"qtkp-counting", tkp(true), 2049},
	} {
		mx := obs.NewMetrics()
		counted, err := tc.run(obs.Obs{Metrics: mx})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := mx.Counter("fastoracle.table.hits").Value(); got != tc.want {
			t.Errorf("%s: fastoracle.table.hits = %d, want %d", tc.name, got, tc.want)
		}
		plain, err := tc.run(obs.Obs{})
		if err != nil {
			t.Fatalf("%s without metrics: %v", tc.name, err)
		}
		if !reflect.DeepEqual(counted, plain) {
			t.Errorf("%s: counting changed the result:\n%+v\n%+v", tc.name, counted, plain)
		}
	}
}
