package core

import (
	"sync"

	"repro/internal/bigraph"
)

// EASVariant selects the implementation of the EnumAlmostSat procedure
// (Section 4 of the paper and the subject of Figure 12).
type EASVariant int

const (
	// EASL2R2 is the paper's full refinement ("L2.0+R2.0"): Lemma 4.2
	// pruning on the R side and ascending-size minimal-removal enumeration
	// with superset pruning on the L side. The default.
	EASL2R2 EASVariant = iota
	// EASL1R1 disables both 2.0 refinements.
	EASL1R1
	// EASL1R2 uses R2.0 with L1.0.
	EASL1R2
	// EASL2R1 uses L2.0 with R1.0.
	EASL2R1
	// EASInflation implements EnumAlmostSat by inflating the
	// almost-satisfying graph and enumerating local maximal (k+1)-plexes,
	// the baseline bTraversal uses.
	EASInflation
)

// String names the variant as the paper does.
func (v EASVariant) String() string {
	switch v {
	case EASL2R2:
		return "L2.0+R2.0"
	case EASL1R1:
		return "L1.0+R1.0"
	case EASL1R2:
		return "L1.0+R2.0"
	case EASL2R1:
		return "L2.0+R1.0"
	case EASInflation:
		return "Inflation"
	}
	return "unknown"
}

// easInput carries one EnumAlmostSat invocation: the solution (L, R), the
// new left vertex v, and precomputed miss counts.
type easInput struct {
	g *bigraph.Graph
	// kL bounds the misses of left vertices toward R', kR those of right
	// vertices toward L'. The paper's symmetric case is kL == kR.
	kL, kR int
	// L, R: the current solution, sorted.
	L, R []int32
	// missL[u] = δ̄(u, L) for every u ∈ R (≤ kR because (L,R) is a biplex).
	missL map[int32]int
	// v is the vertex being added to form the almost-satisfying graph.
	v int32
	// minRight, when positive, prunes local solutions whose right side is
	// smaller than it (large-MBP local-solution pruning, Section 5).
	minRight int
	variant  EASVariant
	// cancel, when non-nil, aborts the enumeration cooperatively.
	cancel func() bool
	// runs, when non-nil, supplies the easRun scratch instead of the
	// shared sync.Pool. An engine passes its own free list here: unlike
	// a sync.Pool, it cannot be drained by a GC cycle, which keeps the
	// hot path's allocation count deterministic run to run (the
	// benchmark gates rely on that).
	runs *easRunStack
}

// easRunStack is a single-goroutine free list of easRun scratch. The
// stack discipline matches the call structure: enumAlmostSat re-enters
// through emit → processLocal → visit → expandSide, so runs at
// different depths are live at once and release in LIFO order.
type easRunStack struct{ free []*easRun }

func (s *easRunStack) get() *easRun {
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return e
	}
	return new(easRun)
}

func (s *easRunStack) put(e *easRun) { s.free = append(s.free, e) }

// easEmit receives each local solution: Lp ⊆ L (sorted, v NOT included)
// and Rp ⊆ R (sorted). Ltight ⊆ Lp holds, ascending, the members at kL
// misses toward Rp — the set the right-shrinking filter needs, which the
// refined variants compute anyway while checking maximality. The slices
// are only valid during the call.
type easEmit func(Lp, Rp, Ltight []int32) bool

// enumAlmostSat enumerates every local solution of the almost-satisfying
// graph (L ∪ {v}, R): induced subgraphs (Lp ∪ {v}, Rp) that are k-biplexes
// and maximal within the almost-satisfying graph (Algorithm 3). It
// returns the number of local solutions emitted and false if emit stopped
// the enumeration.
// easPool recycles easRun state across EnumAlmostSat invocations — one
// runs per candidate vertex per expansion, making this the engine's
// highest-frequency allocation site. Recursion re-enters enumAlmostSat
// (emit → processLocal → visit → expandSide), so each invocation checks
// a run out of the pool for its own exclusive use.
var easPool = sync.Pool{New: func() any { return new(easRun) }}

func enumAlmostSat(in easInput, emit easEmit) (int, bool) {
	if in.variant == EASInflation {
		return enumAlmostSatInflation(in, emit)
	}
	runs := in.runs
	var e *easRun
	if runs != nil {
		e = runs.get()
	} else {
		e = easPool.Get().(*easRun)
	}
	e.easInput = in
	e.emit = emit
	e.count = 0
	e.stopped = false
	e.prime(len(in.L)+1, len(in.R)+1)
	e.r1, e.r2, e.rsel = e.r1[:0], e.r2[:0], e.rsel[:0]
	defer func() {
		// Drop references into the caller's graph and solution before
		// pooling; the scratch buffers keep their capacity.
		e.easInput = easInput{}
		e.emit = nil
		if runs != nil {
			runs.put(e)
		} else {
			easPool.Put(e)
		}
	}()

	// Partition R into Rkeep = Γ(v, R) (in every local solution, Lemma
	// 4.1) and Renum = R \ Rkeep.
	nv := in.g.NeighL(in.v)
	e.rkeep = sortedIntersect(e.rkeep[:0], in.R, nv)
	e.renum = sortedSubtract(e.renum[:0], in.R, nv)

	switch in.variant {
	case EASL1R1, EASL2R1:
		// R1.0: all subsets R'' ⊆ Renum with |R''| ≤ k.
		e.enumR1(0)
	default:
		// R2.0: split Renum by tightness and apply Lemma 4.2.
		for _, u := range e.renum {
			if in.missL[u] <= in.kR-1 {
				e.r1 = append(e.r1, u)
			} else {
				e.r2 = append(e.r2, u)
			}
		}
		e.enumR2()
	}
	return e.count, !e.stopped
}

// easRun holds the mutable state of one enumAlmostSat call.
type easRun struct {
	easInput
	emit    easEmit
	rkeep   []int32 // Γ(v, R)
	renum   []int32 // R \ Γ(v, R)
	r1, r2  []int32 // R2.0 partition of renum by δ̄(u, L) ≤ k-1 / = k
	rsel    []int32 // currently selected R''
	count   int
	stopped bool

	// Per-R'' scratch, rebuilt by processRSel.
	rp      []int32 // R' = rkeep ∪ R''
	rselBuf []int32 // sorted copy of rsel
	rtight  []int32 // {u ∈ R'' : δ̄(u, L) = k}
	missRp  []int   // δ̄(L[i], R') positional over L — no map on the hot path
	lremo   []int32
	minimal [][]int32 // successful minimal removal sets (L2.0 pruning)
	lsel    []int32   // currently selected removal set L̄

	// Per-candidate scratch, rebuilt by tryCandidate. The emitted L'
	// aliases lpBuf, which the easEmit contract permits (slices are valid
	// only during the call).
	ltight  []int32
	lbarBuf []int32
	lpBuf   []int32

	// primeL/primeR record the solution shape the scratch slices were
	// last sized for (see prime).
	primeL, primeR int
}

// prime sizes every scratch slice for a solution shape of nL left and
// nR right members, carving them all from one block so a fresh easRun
// costs two allocations instead of a dozen append-growth chains. The
// engine traversal holds one easRun live per recursion level, so this
// warm-up cost is paid per level per run and dominates the engine's
// residual allocation count. The carved capacities are working sizes,
// not hard limits — an append past one spills to the heap safely.
func (e *easRun) prime(nL, nR int) {
	if e.primeL >= nL && e.primeR >= nR {
		return
	}
	if nL < e.primeL {
		nL = e.primeL
	}
	if nR < e.primeR {
		nR = e.primeR
	}
	block := make([]int32, 8*nR+5*nL)
	take := func(n int) []int32 {
		s := block[0:0:n]
		block = block[n:]
		return s
	}
	e.rkeep, e.renum, e.r1, e.r2 = take(nR), take(nR), take(nR), take(nR)
	e.rsel, e.rp, e.rselBuf, e.rtight = take(nR), take(nR), take(nR), take(nR)
	e.ltight, e.lbarBuf, e.lpBuf = take(nL), take(nL), take(nL)
	e.lremo, e.lsel = take(nL), take(nL)
	e.missRp = make([]int, 0, nL)
	e.primeL, e.primeR = nL, nR
}

// enumR1 enumerates R” ⊆ renum with |R”| ≤ k (refined enumeration on R,
// version 1.0).
func (e *easRun) enumR1(from int) {
	if e.stopped {
		return
	}
	e.processRSel()
	if e.stopped || len(e.rsel) == e.kL {
		return
	}
	for i := from; i < len(e.renum); i++ {
		e.rsel = append(e.rsel, e.renum[i])
		e.enumR1(i + 1)
		e.rsel = e.rsel[:len(e.rsel)-1]
		if e.stopped {
			return
		}
	}
}

// enumR2 enumerates R” = R1” ∪ R2” with R1” ⊆ r1, R2” ⊆ r2 and
// |R”| ≤ kL, pruned by Lemma 4.2: a combination with |R”| < kL is
// viable only when R1” = r1. The viable combinations split into two
// disjoint families, each enumerated in O(#combinations · k):
//
//	(A) R1'' = r1 (needs |r1| ≤ kL), R2'' of any size ≤ kL − |r1|;
//	(B) R1'' ⊊ r1 and |R1''| + |R2''| = kL exactly.
func (e *easRun) enumR2() {
	// Family (A).
	if len(e.r1) <= e.kL {
		e.rsel = append(e.rsel[:0], e.r1...)
		e.enumR2AnySize(0, e.kL-len(e.r1))
		if e.stopped {
			return
		}
	}
	// Family (B): impossible when r1 is empty (no proper subset exists).
	e.rsel = e.rsel[:0]
	if len(e.r1) > 0 {
		e.enumR2ExactR1(0)
	}
}

// enumR2AnySize processes the current selection and extends it with r2
// combinations while budget remains.
func (e *easRun) enumR2AnySize(from, budget int) {
	if e.stopped {
		return
	}
	e.processRSel()
	if e.stopped || budget == 0 {
		return
	}
	for j := from; j < len(e.r2); j++ {
		e.rsel = append(e.rsel, e.r2[j])
		e.enumR2AnySize(j+1, budget-1)
		e.rsel = e.rsel[:len(e.rsel)-1]
		if e.stopped {
			return
		}
	}
}

// enumR2ExactR1 chooses R1” ⊊ r1 (rsel holds only r1 members here),
// completing each choice with exactly kL − |R1”| members of r2.
func (e *easRun) enumR2ExactR1(from int) {
	if e.stopped {
		return
	}
	if len(e.rsel) < len(e.r1) {
		e.enumR2ExactR2(0, e.kL-len(e.rsel))
		if e.stopped {
			return
		}
	}
	if len(e.rsel) == e.kL {
		return
	}
	for i := from; i < len(e.r1); i++ {
		e.rsel = append(e.rsel, e.r1[i])
		e.enumR2ExactR1(i + 1)
		e.rsel = e.rsel[:len(e.rsel)-1]
		if e.stopped {
			return
		}
	}
}

// enumR2ExactR2 completes the selection with exactly need r2 members.
func (e *easRun) enumR2ExactR2(from, need int) {
	if e.stopped {
		return
	}
	if need == 0 {
		e.processRSel()
		return
	}
	for j := from; j <= len(e.r2)-need; j++ {
		e.rsel = append(e.rsel, e.r2[j])
		e.enumR2ExactR2(j+1, need-1)
		e.rsel = e.rsel[:len(e.rsel)-1]
		if e.stopped {
			return
		}
	}
}

// processRSel handles one selected R” (= e.rsel): it prepares R',
// Rtight, Lremo and the miss counts, then enumerates removal sets L̄.
func (e *easRun) processRSel() {
	if e.cancel != nil && e.cancel() {
		e.stopped = true
		return
	}
	// R'' must be sorted for the merge; rsel is built r1-then-r2 under
	// R2.0, so order is not guaranteed — copy and sort via merge-insert.
	rsel := append(e.rselBuf[:0], e.rsel...)
	e.rselBuf = rsel
	insertionSortInt32(rsel)

	e.rp = sortedMerge(e.rp[:0], e.rkeep, rsel)
	if e.minRight > 0 && len(e.rp) < e.minRight {
		return // large-MBP local-solution pruning
	}

	// Rtight: members of R'' whose left misses are already at k; adding v
	// pushes them to k+1, so a removal must cover each (Lemma 4.3).
	e.rtight = e.rtight[:0]
	for _, u := range rsel {
		if e.missL[u] == e.kR {
			e.rtight = append(e.rtight, u)
		}
	}

	// δ̄(v', R') for every v' ∈ L, positional over the sorted L.
	e.missRp = e.missRp[:0]
	for _, vp := range e.L {
		e.missRp = append(e.missRp, len(e.rp)-sortedIntersectCount(e.g.NeighL(vp), e.rp))
	}

	// Lremo: left vertices missing at least one Rtight member. The break
	// after the append guarantees each vp is appended at most once.
	e.lremo = e.lremo[:0]
	if len(e.rtight) > 0 {
		for _, vp := range e.L {
			for _, u := range e.rtight {
				if !sortedContains(e.g.NeighR(u), vp) {
					e.lremo = append(e.lremo, vp)
					break
				}
			}
		}
	}

	e.minimal = e.minimal[:0]
	e.lsel = e.lsel[:0]
	rselSorted := rsel
	// Enumerate L̄ ⊆ Lremo with |L̄| ≤ |Rtight| in ascending size order.
	maxRemove := len(e.rtight)
	for size := 0; size <= maxRemove && !e.stopped; size++ {
		e.enumLSel(0, size, rselSorted)
	}
}

// enumLSel picks `size` more members of lremo starting at index from.
func (e *easRun) enumLSel(from, size int, rsel []int32) {
	if e.stopped {
		return
	}
	if size == 0 {
		e.tryCandidate(rsel)
		return
	}
	for i := from; i+size <= len(e.lremo); i++ {
		e.lsel = append(e.lsel, e.lremo[i])
		e.enumLSel(i+1, size-1, rsel)
		e.lsel = e.lsel[:len(e.lsel)-1]
		if e.stopped {
			return
		}
	}
}

// tryCandidate validates the candidate (L \ L̄ ∪ {v}, R') and emits it when
// it is a local solution.
func (e *easRun) tryCandidate(rsel []int32) {
	useL2 := e.variant == EASL2R2 || e.variant == EASL2R1
	if useL2 {
		// Superset pruning (Section 4.4): skip supersets of successful
		// minimal removals.
		for _, m := range e.minimal {
			if subsetOfSmall(m, e.lsel) {
				return
			}
		}
	}

	// (a) L̄ must cover every Rtight member (otherwise not a k-biplex).
	for _, u := range e.rtight {
		covered := false
		for _, vp := range e.lsel {
			if !sortedContains(e.g.NeighR(u), vp) {
				covered = true
				break
			}
		}
		if !covered {
			return
		}
	}

	// missAfter(u) = δ̄(u, L' ∪ {v}) for u ∈ R.
	missAfter := func(u int32) int {
		m := e.missL[u]
		for _, vp := range e.lsel {
			if !sortedContains(e.g.NeighR(u), vp) {
				m--
			}
		}
		if !sortedContains(e.g.NeighL(e.v), u) {
			m++ // u misses v
		}
		return m
	}

	// (b) No removed vertex may be re-addable, else the candidate is not
	// maximal within the almost-satisfying graph.
	for _, vp := range e.lsel {
		readdable := true
		nvp := e.g.NeighL(vp)
		for _, u := range e.rp {
			if !sortedContains(nvp, u) && missAfter(u) > e.kR-1 {
				readdable = false
				break
			}
		}
		if readdable {
			return
		}
	}

	// Ltight: members of L' already at k misses w.r.t. R'; any addable
	// right vertex must connect all of them. The emit below hands it
	// across to the right-shrinking filter.
	ltight := e.ltight[:0]
	for i, vp := range e.L {
		if len(e.lsel) > 0 && sortedContains32(e.lsel, vp) {
			continue
		}
		if e.missRp[i] == e.kL {
			ltight = append(ltight, vp)
		}
	}
	e.ltight = ltight

	// (c) No u* ∈ Renum \ R'' may be addable. If |R''| = k, v's budget is
	// exhausted and nothing is addable.
	if len(rsel) < e.kL {
		for _, u := range e.renum {
			if sortedContains(rsel, u) {
				continue
			}
			if missAfter(u) > e.kR {
				continue
			}
			blocked := false
			nu := e.g.NeighR(u)
			for _, vt := range ltight {
				if !sortedContains(nu, vt) {
					blocked = true
					break
				}
			}
			if !blocked {
				return // u* addable → not maximal
			}
		}
	}

	// Local solution. Build L' = L \ L̄ in reusable scratch: the emit
	// contract limits the slices' validity to the call.
	lp := e.L
	if len(e.lsel) > 0 {
		lbar := append(e.lbarBuf[:0], e.lsel...)
		e.lbarBuf = lbar
		insertionSortInt32(lbar)
		e.lpBuf = sortedSubtract(e.lpBuf[:0], e.L, lbar)
		lp = e.lpBuf
	}
	if useL2 {
		// Reuse the truncated entries' backing arrays from earlier R''
		// selections of this run.
		if n := len(e.minimal); n < cap(e.minimal) {
			e.minimal = e.minimal[:n+1]
			e.minimal[n] = append(e.minimal[n][:0], e.lsel...)
		} else {
			e.minimal = append(e.minimal, append([]int32(nil), e.lsel...))
		}
	}
	e.count++
	if !e.emit(lp, e.rp, e.ltight) {
		e.stopped = true
	}
}

// sortedContains32 is a linear scan for the tiny (≤ k) removal sets whose
// order is selection order, not ascending.
func sortedContains32(a []int32, x int32) bool {
	for _, y := range a {
		if y == x {
			return true
		}
	}
	return false
}

// subsetOfSmall reports whether every member of a occurs in b (both tiny).
func subsetOfSmall(a, b []int32) bool {
	for _, x := range a {
		if !sortedContains32(b, x) {
			return false
		}
	}
	return true
}

func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
