// Package core implements the paper's primary contribution: reverse-search
// enumeration of maximal k-biplexes (MBPs) on a bipartite graph.
//
// One engine covers the whole design space of Section 3:
//
//   - bTraversal  — the basic framework: arbitrary initial solution,
//     almost-satisfying graphs formed with vertices of both sides, no link
//     pruning (Algorithm 1).
//   - iTraversal  — initial solution H0 = (L0, R), left-anchored traversal,
//     right-shrinking traversal and the exclusion strategy (Algorithm 2),
//     which together sparsify the solution graph by orders of magnitude
//     while keeping every MBP reachable, and give polynomial delay.
//
// The ablation variants of Figure 11 (iTraversal-ES, iTraversal-ES-RS) are
// obtained by toggling Options fields.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/arena"
	"repro/internal/bigraph"
	"repro/internal/biplex"
	"repro/internal/bitset"
	"repro/internal/btree"
	"repro/internal/vskey"
)

// Options configures one enumeration run.
type Options struct {
	// K is the biplex parameter k ≥ 1.
	K int

	// KLeft and KRight, when positive, override K per side: left vertices
	// may miss up to KLeft right members and right vertices up to KRight
	// left members (the per-side generalization noted after Definition
	// 2.1). The Inflation EnumAlmostSat variant requires KLeft == KRight
	// (the (k+1)-plex correspondence is inherently symmetric).
	KLeft, KRight int

	// LeftAnchored restricts Step 1 to left vertices (Section 3.3).
	LeftAnchored bool
	// RightShrinking discards local solutions that extend with a right
	// vertex and extends with left vertices only (Section 3.4).
	RightShrinking bool
	// Exclusion enables the exclusion strategy (Section 3.5).
	Exclusion bool
	// InitialRightFull starts from H0 = (L0, R) as iTraversal does;
	// otherwise the initial solution is an arbitrary greedy MBP.
	InitialRightFull bool

	// Variant selects the EnumAlmostSat implementation.
	Variant EASVariant

	// ThetaL and ThetaR, when positive, enumerate only large MBPs
	// (|L| ≥ ThetaL and |R| ≥ ThetaR) with the prunings of Section 5.
	// They require RightShrinking and InitialRightFull. The paper's
	// symmetric "large MBP" setting is ThetaL = ThetaR = θ.
	ThetaL, ThetaR int

	// MaxResults stops the run after this many solutions were emitted
	// (0 = enumerate everything).
	MaxResults int

	// CountLinks records solution-graph links in Stats (Figures 3, 11).
	// Links are counted after the framework's prunings, so the count is
	// the link count of the operative solution graph G, G_L, G_R or G_E.
	CountLinks bool

	// OnLink, when non-nil, receives every discovered solution-graph link
	// after the framework's prunings (the same events CountLinks counts).
	// The pairs are valid only during the call; package solgraph uses this
	// hook to materialize the solution graph explicitly.
	OnLink func(from, to biplex.Pair)

	// Cancel, when non-nil, is polled during the traversal; returning
	// true aborts the run cooperatively (the experiment harness uses it
	// to implement the paper's 24h "INF" limit at laptop scale).
	Cancel func() bool

	// Store, when non-nil, replaces the default in-memory B-tree as the
	// solution deduplication store — e.g. a diskstore.Store for runs whose
	// solution set exceeds memory. Insert must report true exactly when
	// the key was absent.
	Store SolutionStore

	// Transpose, when non-nil, is g's precomputed transpose and is used
	// instead of recomputing it. Long-lived callers that run many
	// enumerations over the same graph (a query engine, the distributed
	// driver's per-expansion ExpandOnce calls) supply it to avoid the
	// O(|E|) transposition on every run.
	Transpose *bigraph.Graph
}

// SolutionStore is the deduplication store contract: Insert returns true
// when the key was new. *btree.Tree and *diskstore.Store satisfy it.
type SolutionStore interface {
	Insert(key []byte) bool
}

// ITraversal returns the options of the paper's full iTraversal.
func ITraversal(k int) Options {
	return Options{
		K:                k,
		LeftAnchored:     true,
		RightShrinking:   true,
		Exclusion:        true,
		InitialRightFull: true,
		Variant:          EASL2R2,
	}
}

// BTraversal returns the options of the baseline bTraversal framework.
// The EnumAlmostSat variant matches iTraversal's (as in Figure 11's
// controlled comparison); pass Variant EASInflation for the paper's
// original bTraversal implementation.
func BTraversal(k int) Options {
	return Options{K: k, Variant: EASL2R2}
}

// Stats reports counters accumulated during a run.
type Stats struct {
	// Solutions is the number of MBPs emitted (after any Theta filter).
	Solutions int64
	// Stored is the number of distinct solutions inserted into the
	// deduplication B-tree (traversed solution-graph nodes).
	Stored int64
	// Links is the number of solution-graph links discovered; only
	// populated when Options.CountLinks is set.
	Links int64
	// EASCalls counts EnumAlmostSat invocations.
	EASCalls int64
	// LocalSolutions counts local solutions across all EAS calls.
	LocalSolutions int64
	// MaxDepth is the deepest DFS recursion reached.
	MaxDepth int
	// Expansions counts iThreeStep invocations (solution expansions); the
	// alternating-output trick guarantees at least one solution is output
	// every two consecutive expansions, which is what makes the delay
	// polynomial (Section 3.5).
	Expansions int64
}

// EmitFunc receives each enumerated MBP. The pair's slices are owned by
// the callee and remain valid after the call. Returning false stops the
// enumeration early.
type EmitFunc func(p biplex.Pair) bool

// Enumerate runs the configured framework over g and streams every MBP to
// emit. It returns the run statistics.
func Enumerate(g *bigraph.Graph, opts Options, emit EmitFunc) (Stats, error) {
	kL, kR := opts.KLeft, opts.KRight
	if kL == 0 {
		kL = opts.K
	}
	if kR == 0 {
		kR = opts.K
	}
	if kL < 1 || kR < 1 {
		return Stats{}, errors.New("core: K (or KLeft/KRight) must be at least 1")
	}
	if opts.Variant == EASInflation && kL != kR {
		return Stats{}, errors.New("core: the Inflation variant requires KLeft == KRight")
	}
	if (opts.ThetaL > 0 || opts.ThetaR > 0) && (!opts.RightShrinking || !opts.InitialRightFull) {
		return Stats{}, errors.New("core: Theta pruning requires the right-shrinking framework (the paper's bTraversal cannot prune small MBPs)")
	}
	store := SolutionStore(&btree.Tree{})
	if opts.Store != nil {
		store = opts.Store
	}
	gT := opts.Transpose
	if gT == nil {
		gT = g.Transpose()
	}
	e := &engine{g: g, gT: gT, opts: opts, kL: kL, kR: kR, emit: emit, store: store}
	e.run()
	return e.stats, nil
}

type engine struct {
	g      *bigraph.Graph
	gT     *bigraph.Graph
	opts   Options
	kL, kR int

	// store deduplicates solutions; sequential runs use a plain B-tree
	// unless Options.Store overrides it, parallel runs inject a
	// lock-guarded shared store.
	store SolutionStore
	// onChild, when non-nil, replaces recursion: each newly stored
	// solution is handed to it instead of being visited depth-first
	// (single-level expansion for the parallel driver and the sharded
	// runtime). The pair's slices are freshly allocated per link
	// (extendLeftOnly/extendBothSides return new result slices), so
	// ownership transfers to the callback — both drivers queue the pair
	// without cloning.
	onChild func(p biplex.Pair)
	// noDedup marks the admit-all store of single-expansion engines, so
	// the hot path skips encoding a key nobody will ever compare.
	noDedup bool
	stats   Stats
	emit    EmitFunc
	stopped bool
	keyBuf  []byte

	// Reusable per-engine scratch. An engine is single-goroutine (the
	// parallel driver builds one engine per worker), so plain fields
	// suffice; each buffer's last use strictly precedes the recursion or
	// the next iteration that overwrites it.
	exclPool  *bitset.Pool    // recycled exclusion-set clones
	lcurBuf   []int32         // processLocal's L' ∪ {v}
	missLFree []map[int32]int // expandSide's per-frame δ̄(u, L) maps
	// ra is rightAddable's membership scratch: bitsets in place of the
	// sorted-slice searches and the candidate-dedup map, cleared bit by
	// bit so a call never pays for the graph's size.
	ra raScratch

	// ar carves the extension result slices out of bump-allocated
	// chunks. processLocal marks before extending, clones the slices to
	// the heap only when the child solution is retained, and releases
	// the whole region otherwise — the Mark/Release pairing nests with
	// the recursion, so the stack discipline holds by construction.
	ar arena.Arena
	// frameFree recycles expandSide frames (and their emit closures):
	// one closure per frame instead of one per EnumAlmostSat call, and
	// zero once the free list warms up.
	frameFree []*expandFrame
	// easRuns and extSc keep the two highest-frequency scratch
	// structures engine-owned rather than in the package sync.Pools: a
	// GC cycle cannot drain them, so the engine's steady-state
	// allocation count is deterministic (the CI allocation gates pin
	// it). extSc needs no stack — extension calls on one engine never
	// overlap — while EAS re-enters through the recursion and gets a
	// LIFO free list.
	easRuns easRunStack
	extSc   extendScratch
	// frontPool / frontPoolT recycle the per-frame expansion frontier
	// bitsets (one pool per orientation: the mirrored pass of
	// bTraversal runs over gT, whose left side is g's right side).
	frontPool, frontPoolT *bitset.Pool
}

// getFront returns a frontier bitset of capacity g.NumLeft() for the
// requested orientation; frames at different recursion depths hold
// fronts concurrently, so each orientation's pool is a stack.
func (e *engine) getFront(mirrored bool) *bitset.Set {
	if mirrored {
		if e.frontPoolT == nil {
			e.frontPoolT = bitset.NewPool(e.gT.NumLeft())
		}
		return e.frontPoolT.Get()
	}
	if e.frontPool == nil {
		e.frontPool = bitset.NewPool(e.g.NumLeft())
	}
	return e.frontPool.Get()
}

func (e *engine) putFront(mirrored bool, s *bitset.Set) {
	if mirrored {
		e.frontPoolT.Put(s)
	} else {
		e.frontPool.Put(s)
	}
}

// getExcl returns a cleared exclusion set from the engine's pool.
func (e *engine) getExcl() *bitset.Set {
	if e.exclPool == nil {
		e.exclPool = bitset.NewPool(e.g.NumLeft())
	}
	return e.exclPool.Get()
}

// getExclCopy returns a pooled copy of excl.
func (e *engine) getExclCopy(excl *bitset.Set) *bitset.Set {
	if e.exclPool == nil {
		e.exclPool = bitset.NewPool(e.g.NumLeft())
	}
	return e.exclPool.GetCopy(excl)
}

// getMissL pops a cleared map for one expandSide frame; frames at
// different recursion depths interleave, so the free list is a stack.
func (e *engine) getMissL() map[int32]int {
	if k := len(e.missLFree); k > 0 {
		m := e.missLFree[k-1]
		e.missLFree[k-1] = nil
		e.missLFree = e.missLFree[:k-1]
		clear(m)
		return m
	}
	return make(map[int32]int)
}

func (e *engine) putMissL(m map[int32]int) {
	e.missLFree = append(e.missLFree, m)
}

// expandFrame carries one expandSide frame's loop state into the EAS
// emit callback. Hoisting the callback here — built once per frame,
// reading the current candidate from fr.v — removes the closure
// allocation from the per-vertex inner loop; recycling frames through
// the engine free list removes it from the frame setup too. Frames at
// different recursion depths are live simultaneously, so the free list
// is a stack, like missLFree.
type expandFrame struct {
	e        *engine
	g        *bigraph.Graph
	h        biplex.Pair
	excl     *bitset.Set
	depth    int
	mirrored bool
	v        int32
	// vHits is |Γ(v) ∩ h.R|. Lemma 4.1 keeps all of Γ(v, h.R) in every
	// local solution, so v misses exactly len(rp) − vHits members of rp.
	vHits int
	emit  easEmit
}

func (e *engine) getFrame() *expandFrame {
	if k := len(e.frameFree); k > 0 {
		fr := e.frameFree[k-1]
		e.frameFree[k-1] = nil
		e.frameFree = e.frameFree[:k-1]
		return fr
	}
	fr := &expandFrame{e: e}
	fr.emit = func(lp, rp, ltight []int32) bool {
		fr.e.processLocal(fr.g, fr.h, fr.v, len(rp)-fr.vHits, lp, rp, ltight, fr.excl, fr.depth, fr.mirrored)
		return !fr.e.stopped
	}
	return fr
}

func (e *engine) putFrame(fr *expandFrame) {
	// Drop references into the caller's graph and solution; the frame
	// and its closure stay warm.
	fr.g, fr.h, fr.excl = nil, biplex.Pair{}, nil
	e.frameFree = append(e.frameFree, fr)
}

func (e *engine) run() {
	// H0 = (L0, R) for iTraversal (Section 3.2); an arbitrary greedy MBP
	// for bTraversal.
	h0 := initialSolution(e.g, e.kL, e.kR, e.opts.InitialRightFull)
	e.keyBuf = vskey.Encode(e.keyBuf[:0], h0.L, h0.R)
	e.store.Insert(e.keyBuf)
	e.stats.Stored++
	var excl *bitset.Set
	if e.opts.Exclusion {
		excl = bitset.New(e.g.NumLeft())
	}
	e.visit(h0, excl, 0)
}

// visit processes one newly discovered solution. Output happens before or
// after the expansion in an alternating manner (Uno's trick), which makes
// the delay of the full framework polynomial: at least one solution is
// output every two consecutive expansions.
func (e *engine) visit(h biplex.Pair, excl *bitset.Set, depth int) {
	if depth > e.stats.MaxDepth {
		e.stats.MaxDepth = depth
	}
	if depth%2 == 0 {
		e.output(h)
		if e.stopped {
			return
		}
	}
	e.expand(h, excl, depth)
	if e.stopped {
		return
	}
	if depth%2 == 1 {
		e.output(h)
	}
}

func (e *engine) output(h biplex.Pair) {
	if len(h.L) < e.opts.ThetaL || len(h.R) < e.opts.ThetaR {
		return
	}
	e.stats.Solutions++
	if e.emit != nil && !e.emit(h) {
		e.stopped = true
		return
	}
	if e.opts.MaxResults > 0 && e.stats.Solutions >= int64(e.opts.MaxResults) {
		e.stopped = true
	}
}

// expand runs the (i)ThreeStep procedure from solution h.
func (e *engine) expand(h biplex.Pair, excl *bitset.Set, depth int) {
	e.stats.Expansions++
	// Solution pruning: with right-shrinking traversal, every solution
	// reachable from h keeps R' ⊆ R, so a small right side is final.
	if e.opts.ThetaR > 0 && len(h.R) < e.opts.ThetaR {
		return
	}
	// Left-side pruning via the exclusion set (Section 5).
	if e.opts.ThetaL > 0 && e.opts.Exclusion && e.g.NumLeft()-excl.Count() < e.opts.ThetaL {
		return
	}

	// Step 1 over left vertices.
	e.expandSide(e.g, h, excl, depth, false)
	if e.stopped {
		return
	}
	// Step 1 over right vertices (bTraversal only).
	if !e.opts.LeftAnchored {
		mirror := biplex.Pair{L: h.R, R: h.L}
		e.expandSide(e.gT, mirror, nil, depth, true)
	}
}

// expandSide forms almost-satisfying graphs by adding vertices of g's left
// side. When mirrored is true, g is the transposed graph and solutions are
// swapped back before further processing.
func (e *engine) expandSide(g *bigraph.Graph, h biplex.Pair, excl *bitset.Set, depth int, mirrored bool) {
	// In the mirrored orientation the roles of the two sides — and with
	// them the budgets and thresholds — swap. Only bTraversal (no Theta
	// support) reaches the mirrored path, so the theta swap is defensive.
	kL, kR := e.kL, e.kR
	thetaR := e.opts.ThetaR
	if mirrored {
		kL, kR = e.kR, e.kL
		thetaR = e.opts.ThetaL
	}

	// δ̄(u, L) for u ∈ R, shared by every EAS call from this frame. The
	// map outlives the recursion below (EAS callbacks reference it), so
	// it comes from a stack-discipline free list, not a single buffer.
	missL := e.getMissL()
	defer e.putMissL(missL)
	for _, u := range h.R {
		missL[u] = len(h.L) - sortedIntersectCount(g.NeighR(u), h.L)
	}

	// Batched expansion frontier: the per-vertex membership and exclusion
	// tests collapse into word-level set algebra up front — fill, clear
	// the |L| member bits, subtract the exclusion set in one fused pass —
	// and the loop then walks set bits in word-granularity chunks. Within
	// this frame excl only ever gains v itself (children mutate copies),
	// so the snapshot taken here is exact.
	front := e.getFront(mirrored)
	defer e.putFront(mirrored, front)
	front.Fill()
	for _, v := range h.L {
		front.Remove(int(v))
	}
	if excl != nil {
		front.Subtract(excl)
	}
	fr := e.getFrame()
	defer e.putFrame(fr)
	fr.g, fr.h, fr.excl, fr.depth, fr.mirrored = g, h, excl, depth, mirrored

	words := front.Words()
	for wi, w := range words {
		if w == 0 {
			continue
		}
		base := int32(wi * 64)
		for w != 0 {
			v := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			if e.stopped {
				return
			}
			if e.opts.Cancel != nil && e.opts.Cancel() {
				e.stopped = true
				return
			}
			degInR := sortedIntersectCount(g.NeighL(v), h.R)
			if thetaR > 0 && degInR+kL < thetaR {
				continue // almost-satisfying graph pruning (Section 5)
			}
			in := easInput{
				g: g, kL: kL, kR: kR, L: h.L, R: h.R, missL: missL, v: v,
				variant: e.opts.Variant, cancel: e.opts.Cancel,
				runs: &e.easRuns,
			}
			if thetaR > 0 {
				in.minRight = thetaR
			}
			e.stats.EASCalls++
			fr.v, fr.vHits = v, degInR
			locals, _ := enumAlmostSat(in, fr.emit)
			e.stats.LocalSolutions += int64(locals)

			if excl != nil && !e.stopped {
				excl.Add(int(v))
			}
		}
	}
}

// processLocal takes one local solution (lp ∪ {v}, rp) of the
// almost-satisfying graph (h.L ∪ {v}, h.R), applies the right-shrinking
// filter, extends it to a full solution, applies exclusion pruning,
// deduplicates and recurses. vMiss is v's miss count toward rp, and
// ltight the Ltight EnumAlmostSat passed with the local solution.
func (e *engine) processLocal(g *bigraph.Graph, h biplex.Pair, v int32, vMiss int, lp, rp, ltight []int32, excl *bitset.Set, depth int, mirrored bool) {
	kL, kR := e.kL, e.kR
	if mirrored {
		kL, kR = e.kR, e.kL
	}
	// lcur lives in engine scratch: its last use (the extension below)
	// precedes both the recursion and the next emit callback.
	e.lcurBuf = sortedInsert(append(e.lcurBuf[:0], lp...), v)
	lcur := e.lcurBuf

	if e.opts.RightShrinking && e.rightAddable(g, h, lcur, rp, ltight, vMiss, v, kL, kR) {
		return // non-right-shrinking link (Algorithm 2 line 7)
	}

	// Step 3: extension to a maximal k-biplex. The result slices (and
	// every fixpoint intermediate of extendBothSides) are bump-allocated
	// against mark; most candidates are discarded below — exclusion
	// prune or dedup hit — and release the whole region in O(1). Only a
	// retained child is cloned out to the heap, which is what keeps the
	// ownership-transfer contract of emit/onChild intact.
	mark := e.ar.Mark()
	var hl, hr []int32
	if e.opts.RightShrinking {
		hl, hr = extendLeftOnly(g, lcur, rp, kL, kR, &e.ar, &e.extSc), rp
	} else {
		gT := e.gT
		if mirrored {
			gT = e.g // g is already the transpose in the mirrored pass
		}
		hl, hr = extendBothSides(g, gT, lcur, rp, kL, kR, &e.ar, &e.extSc)
	}

	if excl != nil {
		blocked := false
		for _, w := range hl {
			if excl.Contains(int(w)) {
				blocked = true
				break
			}
		}
		if blocked {
			e.ar.Release(mark)
			return // exclusion strategy prunes this link
		}
	}

	if e.opts.CountLinks {
		e.stats.Links++
	}

	// The dedup key is encoded in canonical (unmirrored) orientation
	// straight from the arena slices; cloning waits until the child is
	// known to be new.
	keyL, keyR := hl, hr
	if mirrored {
		keyL, keyR = hr, hl
	}
	var hp biplex.Pair
	if e.opts.OnLink != nil {
		// The OnLink hook receives heap pairs (package solgraph retains
		// them); hooked runs pay the clone before the dedup check, like
		// they always did.
		hp = biplex.Pair{L: append([]int32(nil), keyL...), R: append([]int32(nil), keyR...)}
		from := h
		if mirrored {
			// h arrived in the transposed orientation; swap it back.
			from = biplex.Pair{L: h.R, R: h.L}
		}
		e.opts.OnLink(from, hp)
	}
	if !e.noDedup {
		e.keyBuf = vskey.Encode(e.keyBuf[:0], keyL, keyR)
		if !e.store.Insert(e.keyBuf) {
			e.ar.Release(mark)
			return // already traversed
		}
	}
	if hp.L == nil {
		hp = biplex.Pair{L: append([]int32(nil), keyL...), R: append([]int32(nil), keyR...)}
	}
	e.ar.Release(mark)
	e.stats.Stored++

	if e.onChild != nil {
		e.onChild(hp)
		return
	}

	var childExcl *bitset.Set
	if excl != nil {
		childExcl = e.getExclCopy(excl)
	} else if e.opts.Exclusion {
		childExcl = e.getExcl()
	}
	e.visit(hp, childExcl, depth+1)
	if childExcl != nil {
		// The child's subtree is fully traversed; recycle its clone.
		e.exclPool.Put(childExcl)
	}
}

// raScratch is rightAddable's engine-owned scratch. Each bitset spans
// max(|L|, |R|) ids of the engine's graph, so one set serves either
// orientation. The sets are cleared sparsely — every call removes
// exactly the bits it set, from the slices it set them from (seen keeps
// its own touched list) — so a call costs O(|lcur| + |h.R| + candidates)
// and never an O(n/64) clear.
type raScratch struct {
	lcur, tight *bitset.Set // left ids: L' ∪ {v}, and its members at kL misses toward R'
	hr, seen    *bitset.Set // right ids: h.R (⊇ R'), and candidates already tested
	touched     []int32     // seen's set bits
	pick        degreePick  // pigeonhole pool
}

// rightAddable reports whether some right vertex u ∉ rp of the full graph
// can join (lcur, rp) while preserving the k-biplex property. Under
// right-shrinking rp ⊆ h.R, and vertices of h.R \ rp need no test — the
// local solution is maximal within the almost-satisfying graph — so only
// vertices outside h.R are scanned.
//
// ltight holds the members of lcur \ {v} at kL misses toward rp, which
// EnumAlmostSat hands across with the local solution; v joins it when
// vMiss == kL. rightAddable never recurses, so the engine-level scratch
// cannot be aliased by a deeper frame.
func (e *engine) rightAddable(g *bigraph.Graph, h biplex.Pair, lcur, rp, ltight []int32, vMiss int, v int32, kL, kR int) bool {
	sc := &e.ra
	if sc.lcur == nil {
		n := max(e.g.NumLeft(), e.g.NumRight())
		sc.lcur, sc.tight, sc.hr, sc.seen = bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
	}
	vTight := vMiss == kL
	nTight := len(ltight)
	if vTight {
		nTight++
	}
	if nTight == 0 && len(lcur) <= kR {
		// Every right vertex satisfies its own constraint and no member
		// constrains it: any vertex outside h.R is addable.
		return g.NumRight() > len(h.R)
	}

	for _, w := range lcur {
		sc.lcur.Add(int(w))
	}
	for _, w := range ltight {
		sc.tight.Add(int(w))
	}
	if vTight {
		sc.tight.Add(int(v))
	}
	for _, u := range h.R {
		sc.hr.Add(int(u))
	}

	found := false
	if nTight > 0 {
		// An addable u connects every tight member, so the neighbor list
		// of any one of them — the shortest — is a complete candidate
		// pool, with no duplicates to skip.
		first := v
		if !vTight {
			first = ltight[0]
		}
		for _, w := range ltight {
			if g.DegL(w) < g.DegL(first) {
				first = w
			}
		}
		for _, u := range g.NeighL(first) {
			if !sc.hr.Contains(int(u)) && sc.fits(g.NeighR(u), lcur, nTight, kR) {
				found = true
				break
			}
		}
	} else {
		// Pigeonhole: an addable u misses at most kR members of lcur, so it
		// is adjacent to at least one of ANY kR+1 members; the union of
		// their neighbor lists is the complete candidate pool.
		touched := sc.touched[:0]
	scan:
		for _, w := range sc.pick.smallest(g, lcur, kR+1, true) {
			for _, u := range g.NeighL(w) {
				if sc.hr.Contains(int(u)) || sc.seen.Contains(int(u)) {
					continue
				}
				sc.seen.Add(int(u))
				touched = append(touched, u)
				if sc.fits(g.NeighR(u), lcur, nTight, kR) {
					found = true
					break scan
				}
			}
		}
		for _, u := range touched {
			sc.seen.Remove(int(u))
		}
		sc.touched = touched
	}

	for _, w := range lcur {
		sc.lcur.Remove(int(w))
		sc.tight.Remove(int(w))
	}
	for _, u := range h.R {
		sc.hr.Remove(int(u))
	}
	return found
}

// fits reports whether a right vertex with neighbor list nu can join
// lcur: it misses at most kR members (its own constraint) and connects
// every one of the nTight tight members (theirs — a non-tight member
// missing u gains one miss and stays within kL). The sets must hold
// lcur and the tight members. One pass over the shorter side counts both.
func (sc *raScratch) fits(nu, lcur []int32, nTight, kR int) bool {
	hits, tight := 0, 0
	if len(nu) > 8*len(lcur) {
		// A hub: gallop lcur's members into its neighbor list instead.
		for _, w := range lcur {
			if sortedContains(nu, w) {
				hits++
				if sc.tight.Contains(int(w)) {
					tight++
				}
			}
		}
	} else {
		for _, w := range nu {
			if sc.lcur.Contains(int(w)) {
				hits++
				if sc.tight.Contains(int(w)) {
					tight++
				}
			}
		}
	}
	return len(lcur)-hits <= kR && tight == nTight
}

// SolutionGraphLinks runs the framework with link counting and returns the
// number of links of the operative solution graph together with the
// number of solutions, the measurement behind Figures 3 and 11.
func SolutionGraphLinks(g *bigraph.Graph, opts Options) (links, solutions int64, err error) {
	opts.CountLinks = true
	opts.MaxResults = 0
	st, err := Enumerate(g, opts, nil)
	if err != nil {
		return 0, 0, err
	}
	return st.Links, st.Stored, nil
}

// Collect is a convenience wrapper that gathers every enumerated MBP into
// a slice sorted by canonical key.
func Collect(g *bigraph.Graph, opts Options) ([]biplex.Pair, Stats, error) {
	var out []biplex.Pair
	st, err := Enumerate(g, opts, func(p biplex.Pair) bool {
		out = append(out, p.Clone())
		return true
	})
	if err != nil {
		return nil, st, err
	}
	biplex.SortPairs(out)
	return out, st, nil
}

// Describe summarizes options for logs and experiment tables.
func Describe(o Options) string {
	name := "custom"
	switch {
	case o.LeftAnchored && o.RightShrinking && o.Exclusion && o.InitialRightFull:
		name = "iTraversal"
	case o.LeftAnchored && o.RightShrinking && o.InitialRightFull:
		name = "iTraversal-ES"
	case o.LeftAnchored && o.InitialRightFull:
		name = "iTraversal-ES-RS"
	case !o.LeftAnchored && !o.RightShrinking && !o.Exclusion:
		name = "bTraversal"
	}
	return fmt.Sprintf("%s(k=%d,%s)", name, o.K, o.Variant)
}

// sortInt32 sorts ids ascending (exported-size helper for tests).
func sortInt32(a []int32) {
	slices.Sort(a)
}
