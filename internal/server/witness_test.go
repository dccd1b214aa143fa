package server

import (
	"context"
	"testing"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/obs"
)

// checkWitness accepts every genuine answer and turns each kind of
// corrupted one into an error that wraps no sentinel, so it maps to
// exit 1 / HTTP 500.
func TestCheckWitness(t *testing.T) {
	g := graph.Example6()
	ok, err := Execute(context.Background(), &api.SolveRequest{V: api.Version, Algo: api.AlgoBB, K: 2}, g, obs.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWitness(g, ok); err != nil {
		t.Fatalf("genuine bb answer %v rejected: %v", ok.Set, err)
	}
	invalid, valid := false, true
	for _, tc := range []struct {
		name    string
		corrupt func(*api.SolveResult)
		wantErr bool
	}{
		{"size-mismatch", func(r *api.SolveResult) { r.Size++ }, true},
		{"vertex-zero", func(r *api.SolveResult) { r.Set[0] = 0 }, true},
		{"vertex-past-n", func(r *api.SolveResult) { r.Set[0] = g.N() + 1 }, true},
		{"duplicate", func(r *api.SolveResult) { r.Set[1] = r.Set[0] }, true},
		{"not-a-plex", func(r *api.SolveResult) { r.Set, r.Size = []int{1, 2, 3, 4, 5, 6}, 6 }, true},
		{"k-too-small", func(r *api.SolveResult) { r.K = 1 }, true},
		{"marked-valid", func(r *api.SolveResult) { r.Set, r.Size, r.Valid = []int{1, 2, 3, 4, 5, 6}, 6, &valid }, true},
		{"marked-invalid", func(r *api.SolveResult) { r.Set, r.Size, r.Valid = []int{1, 2, 3, 4, 5, 6}, 6, &invalid }, false},
		{"empty", func(r *api.SolveResult) { r.Set, r.Size = nil, 0 }, false},
	} {
		res := ok.Clone()
		tc.corrupt(res)
		err := checkWitness(g, res)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: checkWitness(%v, size %d) = %v, want error %v", tc.name, res.Set, res.Size, err, tc.wantErr)
		}
		if err != nil && api.ErrorKind(err) != api.KindInternal {
			t.Errorf("%s: error %v classifies as %q, want %q", tc.name, err, api.ErrorKind(err), api.KindInternal)
		}
	}
}
