package kplex

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// TabuSearch's sets under its fixed move budget, tenure and restart
// count, pinned on three G(n, m) graphs at three seeds. Seed 0 runs as
// seed 1.
func TestTabuSetsPinned(t *testing.T) {
	for _, tc := range []struct {
		n, m, k int
		gseed   int64
		want    map[int64][]int
	}{
		{20, 60, 2, 1, map[int64][]int{0: {0, 4, 6, 7, 10}, 1: {0, 4, 6, 7, 10}, 7: {4, 5, 6, 10, 15}}},
		{30, 150, 3, 2, map[int64][]int{0: {5, 6, 13, 17, 20, 26, 28}, 1: {5, 6, 13, 17, 20, 26, 28}, 7: {0, 4, 5, 8, 13, 17, 26}}},
		{40, 120, 2, 9, map[int64][]int{0: {15, 22, 25, 32, 39}, 1: {15, 22, 25, 32, 39}, 7: {11, 17, 19, 27, 28}}},
	} {
		g := graph.Gnm(tc.n, tc.m, tc.gseed)
		for _, seed := range []int64{0, 1, 7} {
			if got := TabuSearch(g, tc.k, seed); !slices.Equal(got, tc.want[seed]) {
				t.Errorf("G(%d,%d,%d) k=%d seed %d: tabu set %v, want %v", tc.n, tc.m, tc.gseed, tc.k, seed, got, tc.want[seed])
			}
		}
	}
}
