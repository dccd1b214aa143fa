package graph

import (
	"math/rand"
	"testing"
)

func TestIsKPlexExample(t *testing.T) {
	g := Example6()
	cases := []struct {
		set  []int
		k    int
		want bool
	}{
		{[]int{0, 1, 3, 4}, 2, true},     // paper's max 2-plex
		{[]int{0, 1, 3, 4, 5}, 2, false}, // v6 has degree 1 < 3
		{[]int{0, 1, 2, 3, 4}, 2, false}, // v3 has degree 1 < 3
		{[]int{0, 1, 3, 4}, 1, false},    // not a clique (v2-v5 missing)
		{[]int{0, 1, 3}, 1, true},        // triangle = clique = 1-plex
		{[]int{}, 2, true},
		{[]int{5}, 1, true},
		{[]int{0, 1}, 0, false}, // k must be ≥ 1
	}
	for _, c := range cases {
		if got := g.IsKPlex(c.set, c.k); got != c.want {
			t.Errorf("IsKPlex(%v, k=%d) = %v, want %v", c.set, c.k, got, c.want)
		}
	}
}

func TestKPlexHereditaryNotGuaranteed(t *testing.T) {
	// k-plexes ARE hereditary: any subset of a k-plex is a k-plex
	// (removing vertices cannot increase the deficit |P|-k-d). Verify on
	// random graphs: if set is a k-plex, so is set minus any vertex.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := Gnp(9, 0.6, rng.Int63())
		for mask := uint64(0); mask < 512; mask++ {
			set := MaskSubset(mask, 9)
			if !g.IsKPlex(set, 2) {
				continue
			}
			for drop := range set {
				sub := append(append([]int{}, set[:drop]...), set[drop+1:]...)
				if !g.IsKPlex(sub, 2) {
					t.Fatalf("heredity violated: %v is 2-plex but %v is not", set, sub)
				}
			}
		}
	}
}
