package embedding_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/anneal"
	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qubo"
)

// The embedded pipeline, pinned: EmbedOnHardware's embedding of the
// paper's 2-plex QUBO of Example 6 (R = 2) and the SQA trajectory
// SampleEmbedded runs on it under the fixed schedule, floats compared as
// math.Float64bits, plus the run's accepted Metropolis moves.
func TestEmbeddedTrajectoryPinned(t *testing.T) {
	enc, err := qubo.FormulateMKP(graph.Example6(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	emb, hw, err := embedding.EmbedOnHardware(enc.Model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := emb.Stats(); st.Variables != 18 || st.PhysicalQubits != 59 || st.MaxChain != 8 || hw.N != 144 {
		t.Errorf("embedding %+v on %d qubits, want 18 variables on 59 physical qubits, longest chain 8, on 144", st, hw.N)
	}
	mx := obs.NewMetrics()
	res, err := embedding.SampleEmbedded(context.Background(), enc.Model, emb, 0,
		anneal.Params{Shots: 6, Sweeps: 20, Seed: 3, Obs: obs.Obs{Metrics: mx}})
	if err != nil {
		t.Fatal(err)
	}
	if counters, _ := mx.Snapshot(); counters["anneal.sqa.accepted"] != 6590 {
		t.Errorf("%d accepted moves, want 6590", counters["anneal.sqa.accepted"])
	}
	x := make([]byte, len(res.Best.X))
	for i, b := range res.Best.X {
		x[i] = '0'
		if b {
			x[i] = '1'
		}
	}
	if want := "100010110010100010"; string(x) != want {
		t.Errorf("best x = %s, want %s", x, want)
	}
	if got, want := math.Float64bits(res.Best.Energy), uint64(0x4018000000000000); got != want {
		t.Errorf("best energy bits %#x (%v), want %#x", got, res.Best.Energy, want)
	}
	want := []uint64{0x4054c00000000000, 0x4054c00000000000, 0x4047000000000000, 0x4035000000000000, 0x4035000000000000, 0x4018000000000000}
	if len(res.BestAfterShot) != len(want) {
		t.Fatalf("%d trace entries, want %d", len(res.BestAfterShot), len(want))
	}
	for i, e := range res.BestAfterShot {
		if got := math.Float64bits(e); got != want[i] {
			t.Errorf("trace[%d] bits %#x (%v), want %#x", i, got, e, want[i])
		}
	}
}
