package core

import (
	"slices"
	"sync"

	"repro/internal/arena"
	"repro/internal/bigraph"
)

// extendScratch bundles the transient buffers of one extendLeftOnly
// call. The function is the engine's hottest and does not recurse, so a
// call checks a scratch out of extendPool, uses it exclusively, and
// returns it before returning — only the result slice leaves the call,
// bump-allocated from the caller's arena (heap when ar is nil).
type extendScratch struct {
	missArr  []int
	missPos  []int32
	added    []int32
	cands    []int32
	all      []int32
	pick     degreePick
	missBase map[int32]int
	delta    map[int32]int
}

var extendPool = sync.Pool{New: func() any { return new(extendScratch) }}

// extendLeftOnly grows the (kL, kR)-biplex (L, R) into one maximal with
// respect to left-vertex additions, adding candidates in ascending id
// order (the paper's "pre-set order", Algorithm 2 Step 3). kL bounds the
// misses of the vertices being added, kR the misses of the fixed right
// members. The right side never changes; the new sorted left side is
// returned and never aliases L or the internal scratch.
//
// A single ascending pass is sufficient: adding a vertex only tightens
// every remaining constraint, so a vertex rejected once can never become
// addable later in the pass.
//
// This avoids maps for small right sides entirely: candidate counting
// sorts the concatenated neighbor lists of R, and the per-member miss
// counters are positional over the sorted R.
//
// The result slice is carved out of ar when non-nil: the caller owns
// the extension's lifetime (it is either discarded wholesale or cloned
// out on retention) and releases the arena region in O(1). A nil ar
// falls back to heap allocation for callers that retain the result
// directly (the initial solution, tests).
// A non-nil sc supplies the scratch buffers directly — an engine passes
// its own (the call never overlaps another on the same engine), keeping
// the hot path off the GC-drainable sync.Pool; nil falls back to it.
func extendLeftOnly(g *bigraph.Graph, L, R []int32, kL, kR int, ar *arena.Arena, sc *extendScratch) []int32 {
	if sc == nil {
		sc = extendPool.Get().(*extendScratch)
		defer extendPool.Put(sc)
	}

	// Miss counts of right members are computed lazily: only positions a
	// candidate actually misses are ever needed (at most kL per
	// candidate), so initializing all |R| counters up front would
	// dominate the engine's runtime on large right sides. delta tracks
	// increments from vertices added during this pass.
	var missArr []int // eager, small right sides
	var missBase, delta map[int32]int
	if len(R) <= 64 {
		missArr = sc.missArr[:0]
		for _, u := range R {
			missArr = append(missArr, len(L)-sortedIntersectCount(g.NeighR(u), L))
		}
		sc.missArr = missArr
	} else {
		if sc.missBase == nil {
			sc.missBase = make(map[int32]int)
		} else {
			clear(sc.missBase)
		}
		missBase = sc.missBase
	}
	missAt := func(i int32) int {
		if missArr != nil {
			return missArr[i]
		}
		m, ok := missBase[i]
		if !ok {
			u := R[i]
			m = len(L) - sortedIntersectCount(g.NeighR(u), L)
			missBase[i] = m
		}
		return m + delta[i]
	}

	cands := leftCandidates(g, L, R, kL, sc)

	added := sc.added[:0]
	missPos := sc.missPos[:0]
	for _, w := range cands {
		// Merge Γ(w) against R collecting missed positions; bail once the
		// own budget is blown.
		nw := g.NeighL(w)
		missPos = missPos[:0]
		j := 0
		ok := true
		for i, u := range R {
			for j < len(nw) && nw[j] < u {
				j++
			}
			if j < len(nw) && nw[j] == u {
				continue
			}
			if len(missPos) == kL {
				ok = false // more than kL misses
				break
			}
			missPos = append(missPos, int32(i))
		}
		if !ok {
			continue
		}
		for _, i := range missPos {
			if missAt(i) > kR-1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		added = append(added, w) // cands ascend, so added stays sorted
		for _, i := range missPos {
			if missArr != nil {
				missArr[i]++
				continue
			}
			if delta == nil {
				if sc.delta == nil {
					sc.delta = make(map[int32]int)
				} else {
					clear(sc.delta)
				}
				delta = sc.delta
			}
			delta[i]++
		}
	}
	sc.added, sc.missPos = added, missPos
	if len(added) == 0 {
		return append(allocIDs(ar, len(L)), L...)
	}
	return sortedMerge(allocIDs(ar, len(L)+len(added)), L, added)
}

// allocIDs returns an empty id slice of capacity n from the arena, or
// the heap when ar is nil.
func allocIDs(ar *arena.Arena, n int) []int32 {
	if ar != nil {
		return ar.Make(n)
	}
	return make([]int32, 0, n)
}

// leftCandidates returns, ascending, the left vertices outside L that
// connect at least |R|-kL members of R (a necessary condition for
// addability). The result aliases sc and is valid until the next use of
// sc.
func leftCandidates(g *bigraph.Graph, L, R []int32, kL int, sc *extendScratch) []int32 {
	cands := sc.cands[:0]
	defer func() { sc.cands = cands }()
	if len(R) <= kL {
		// Every left vertex satisfies its own constraint, including ones
		// with no neighbor in R.
		for w := int32(0); w < int32(g.NumLeft()); w++ {
			if !sortedContains(L, w) {
				cands = append(cands, w)
			}
		}
		return cands
	}
	// Pigeonhole: an addable w misses at most kL members of R, so it is
	// adjacent to at least one of ANY kL+1 members. The union of the
	// neighbor lists of kL+1 small-degree members is therefore a complete
	// candidate pool (a superset of the addable vertices; the caller
	// verifies each candidate exactly).
	pool := sc.pick.smallest(g, R, kL+1, false)
	all := sc.all[:0]
	for _, u := range pool {
		all = append(all, g.NeighR(u)...)
	}
	sc.all = all
	// slices.Sort, not sort.Slice: the reflect-based swapper and the
	// comparison closure were two heap allocations per call in the
	// engine's hottest loop.
	slices.Sort(all)
	for i, w := range all {
		if i > 0 && all[i-1] == w {
			continue
		}
		if !sortedContains(L, w) {
			cands = append(cands, w)
		}
	}
	return cands
}

// degreePick selects pigeonhole pools in reusable scratch. Both
// pigeonhole filters — leftCandidates over R and rightAddable over L' ∪
// {v} — need n members of a vertex set whose neighbor lists are short,
// and both accept any n members as a correct pool: small degrees only
// make the pool cheaper to scan.
type degreePick struct {
	pool []int32
	degs []int
}

// smallest returns n members of ids with small degrees (DegL when left,
// DegR otherwise), or ids itself when n ≥ len(ids). Only a bounded
// prefix of ids is scanned, so the selection's cost does not grow with
// |ids|; within it, the n smallest degrees win. The result aliases p or
// ids and is valid until the next call.
func (p *degreePick) smallest(g *bigraph.Graph, ids []int32, n int, left bool) []int32 {
	if n >= len(ids) {
		return ids
	}
	scan := min(len(ids), 64)
	pool, degs := p.pool[:0], p.degs[:0]
	for _, u := range ids[:scan] {
		var d int
		if left {
			d = g.DegL(u)
		} else {
			d = g.DegR(u)
		}
		if len(pool) < n {
			pool = append(pool, u)
			degs = append(degs, d)
			continue
		}
		maxI := 0
		for i := 1; i < len(degs); i++ {
			if degs[i] > degs[maxI] {
				maxI = i
			}
		}
		if d < degs[maxI] {
			pool[maxI], degs[maxI] = u, d
		}
	}
	p.pool, p.degs = pool, degs
	return pool
}

// extendBothSides grows the (kL, kR)-biplex (L, R) to a maximal one by
// alternately scanning both sides in ascending order until a fixpoint, the
// extension used by the frameworks that do not employ right-shrinking
// traversal. On the transposed pass the side budgets swap. gT is g's
// transpose, passed in so the fixpoint loop does not rebuild the mirror
// view per call. Every intermediate of the fixpoint iteration lives in
// ar — the caller releases them all at once.
func extendBothSides(g, gT *bigraph.Graph, L, R []int32, kL, kR int, ar *arena.Arena, sc *extendScratch) ([]int32, []int32) {
	curL, curR := L, R
	for {
		nl := extendLeftOnly(g, curL, curR, kL, kR, ar, sc)
		nr := extendLeftOnly(gT, curR, nl, kR, kL, ar, sc)
		if len(nl) == len(curL) && len(nr) == len(curR) {
			return nl, nr
		}
		curL, curR = nl, nr
	}
}
