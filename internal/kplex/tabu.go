package kplex

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Tabu search for large k-plexes, in the family of the approximation
// baselines the paper surveys (Gujjula & Balasundaram's GRASP+tabu, Zhou
// et al.'s frequency-driven tabu search). It is a heuristic baseline,
// run only by cmd/qmkp's -algo tabu: the reductions and qMKP's bounded
// binary search take their lower bound from Greedy.

// The search's fixed budget: tabuIterations moves in total, shared
// evenly by tabuRestarts independent restarts, and a dropped vertex stays
// tabu for tabuTenure moves.
const (
	tabuIterations = 2000
	tabuTenure     = 7
	tabuRestarts   = 4
)

// TabuSearch looks for a large k-plex by add/drop moves with a recency
// tabu list: add moves keep the k-plex invariant; when no addition is
// possible the least-connected member is dropped (and made tabu) to
// escape the plateau. Returns the best k-plex found (possibly empty for
// an empty graph). Deterministic under a fixed seed; seed 0 runs as 1.
func TabuSearch(g *graph.Graph, k int, seed int64) []int {
	if seed == 0 {
		seed = 1
	}
	n := g.N()
	if n == 0 || k < 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var best []int
	for restart := 0; restart < tabuRestarts; restart++ {
		cur := []int{rng.Intn(n)}
		if len(best) == 0 {
			best = append(best[:0:0], cur...)
		}
		tabuUntil := make([]int, n)
		for it := 1; it <= tabuIterations/tabuRestarts; it++ {
			// Best non-tabu addition: maximise connectivity into cur.
			addV, addGain := -1, -1
			for v := 0; v < n; v++ {
				if tabuUntil[v] > it || contains(cur, v) {
					continue
				}
				cand := append(append([]int{}, cur...), v)
				if !g.IsKPlex(cand, k) {
					continue
				}
				if gain := g.InducedDegree(v, cur); gain > addGain {
					addV, addGain = v, gain
				}
			}
			if addV >= 0 {
				cur = append(cur, addV)
				if len(cur) > len(best) {
					best = append(best[:0:0], cur...)
				}
				continue
			}
			if len(cur) <= 1 {
				// Nothing to drop; jump elsewhere.
				cur = []int{rng.Intn(n)}
				continue
			}
			// Plateau: drop the member with the fewest internal
			// connections (ties broken randomly) and forbid its return.
			dropIdx, dropDeg, ties := -1, n+1, 0
			for i, v := range cur {
				d := g.InducedDegree(v, cur)
				switch {
				case d < dropDeg:
					dropIdx, dropDeg, ties = i, d, 1
				case d == dropDeg:
					ties++
					if rng.Intn(ties) == 0 {
						dropIdx = i
					}
				}
			}
			v := cur[dropIdx]
			cur = append(cur[:dropIdx], cur[dropIdx+1:]...)
			tabuUntil[v] = it + tabuTenure
		}
	}
	sort.Ints(best)
	return best
}
