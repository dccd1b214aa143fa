package graph

// IsKPlex reports whether set is a k-plex in g: every v ∈ set has at least
// |set|-k neighbours inside set. Following Definition 1, the empty set and
// any single vertex are k-plexes for every k ≥ 1.
func (g *Graph) IsKPlex(set []int, k int) bool {
	if k < 1 {
		return false
	}
	s := len(set)
	for _, v := range set {
		if g.InducedDegree(v, set) < s-k {
			return false
		}
	}
	return true
}
