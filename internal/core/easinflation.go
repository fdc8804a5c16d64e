package core

import (
	"repro/internal/inflate"
	"repro/internal/kplex"
)

// enumAlmostSatInflation implements EnumAlmostSat the way the bTraversal
// baseline does (Section 6.2, "Inflation"): inflate the almost-satisfying
// graph (L ∪ {v}, R) into a general graph and enumerate its maximal
// (k+1)-plexes, keeping those that contain v. Exponential in the size of
// the almost-satisfying graph, which is exactly the gap Figure 12
// measures.
func enumAlmostSatInflation(in easInput, emit easEmit) (int, bool) {
	// Induced vertex order: positions 0..len(L)-1 are L, position len(L)
	// is v, positions len(L)+1... are R.
	lset := append(append([]int32(nil), in.L...), in.v)
	ig := inflate.InflateInduced(in.g, lset, in.R)
	vPos := len(in.L)

	count := 0
	ok := true
	var ltight []int32
	kplex.EnumerateMaximalCancel(ig, in.kL+1, in.cancel, func(members []int32) bool {
		containsV := false
		var lp, rp []int32
		for _, m := range members {
			switch {
			case int(m) == vPos:
				containsV = true
			case int(m) < vPos:
				lp = append(lp, in.L[m])
			default:
				rp = append(rp, in.R[int(m)-vPos-1])
			}
		}
		if !containsV {
			return true // not a local solution; keep enumerating
		}
		if in.minRight > 0 && len(rp) < in.minRight {
			return true
		}
		// Inflation keeps no miss counts, so Ltight (members of lp at kL
		// misses toward rp) is counted here for the emit.
		ltight = ltight[:0]
		for _, w := range lp {
			if len(rp)-sortedIntersectCount(in.g.NeighL(w), rp) == in.kL {
				ltight = append(ltight, w)
			}
		}
		count++
		if !emit(lp, rp, ltight) {
			ok = false
			return false
		}
		return true
	})
	return count, ok
}
