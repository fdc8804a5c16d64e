package core

import "repro/internal/bigraph"

// EnumAlmostSatOnce runs a single EnumAlmostSat invocation on the
// almost-satisfying graph (L ∪ {v}, R) and returns the number of local
// solutions found. (L, R) must be a k-biplex of g with v ∉ L. It exists
// for the Figure 12 experiment, which times EnumAlmostSat variants on
// random almost-satisfying graphs in isolation.
func EnumAlmostSatOnce(g *bigraph.Graph, L, R []int32, v int32, k int, variant EASVariant, cancel func() bool) int {
	missL := make(map[int32]int, len(R))
	for _, u := range R {
		missL[u] = len(L) - sortedIntersectCount(g.NeighR(u), L)
	}
	n, _ := enumAlmostSat(easInput{
		g: g, kL: k, kR: k, L: L, R: R, missL: missL, v: v,
		variant: variant, cancel: cancel,
	}, func(_, _, _ []int32) bool { return true })
	return n
}
