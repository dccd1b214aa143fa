package anneal

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// goldenRun is one pinned sampler trajectory: the best assignment as a
// bit string, its energy and the best-after-shot trace, the floats as
// math.Float64bits so a one-ulp change fails, and the number of accepted
// Metropolis moves, which moves when any single accept decision of the
// run does.
type goldenRun struct {
	x        string
	energy   uint64
	trace    []uint64
	accepted int64
}

// checkGolden compares res, and the accepted-move counter kind's run
// left in mx, with want bit for bit.
func checkGolden(t *testing.T, kind string, res Result, mx *obs.Metrics, want goldenRun) {
	t.Helper()
	x := make([]byte, len(res.Best.X))
	for i, b := range res.Best.X {
		x[i] = '0'
		if b {
			x[i] = '1'
		}
	}
	if string(x) != want.x {
		t.Errorf("%s: best x = %s, want %s", kind, x, want.x)
	}
	if got := math.Float64bits(res.Best.Energy); got != want.energy {
		t.Errorf("%s: best energy bits %#x (%v), want %#x (%v)", kind, got, res.Best.Energy, want.energy, math.Float64frombits(want.energy))
	}
	if len(res.BestAfterShot) != len(want.trace) {
		t.Fatalf("%s: %d trace entries, want %d", kind, len(res.BestAfterShot), len(want.trace))
	}
	for i, e := range res.BestAfterShot {
		if got := math.Float64bits(e); got != want.trace[i] {
			t.Errorf("%s: trace[%d] bits %#x (%v), want %#x", kind, i, got, e, want.trace[i])
		}
	}
	counters, _ := mx.Snapshot()
	if got := counters["anneal."+kind+".accepted"]; got != want.accepted {
		t.Errorf("%s: %d accepted moves, want %d", kind, got, want.accepted)
	}
}

// The SA and SQA trajectories under the fixed schedules, pinned on the
// paper's 2-plex QUBO of Example 6 (R = 2) at two seeds. Any change to
// a schedule constant, the RNG draw order or the energy accounting
// moves them; a deliberate change regenerates them openly.
func TestSamplerTrajectoriesPinned(t *testing.T) {
	e, _ := smallMKPModel(t)
	const (
		m2 = 0xc000000000000000 // -2
		m3 = 0xc008000000000000 // -3
		m4 = 0xc010000000000000 // -4
	)
	for _, tc := range []struct {
		seed    int64
		sa, sqa goldenRun
	}{
		{1,
			goldenRun{"110110001001000100", m4, []uint64{m3, m4, m4, m4, m4, m4, m4, m4}, 641},
			goldenRun{"100011100101010000", m3, []uint64{m2, m2, m2, m3, m3, m3, m3, m3}, 1350}},
		{5,
			goldenRun{"110110001001000100", m4, []uint64{m4, m4, m4, m4, m4, m4, m4, m4}, 622},
			goldenRun{"101100010000010100", m3, []uint64{0xbff0000000000000, m2, m2, m2, m2, m3, m3, m3}, 1626}},
	} {
		mx := obs.NewMetrics()
		p := Params{Shots: 8, Sweeps: 20, Seed: tc.seed, Obs: obs.Obs{Metrics: mx}}
		sa, err := SA(context.Background(), e.Model, p)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sa", sa, mx, tc.sa)
		sqa, err := SQA(context.Background(), e.Model, p)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "sqa", sqa, mx, tc.sqa)
	}
}
