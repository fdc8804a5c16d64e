package core

import (
	"testing"

	"repro/internal/bigraph"
	"repro/internal/biplex"

	"repro/internal/btree"
	"repro/internal/diskstore"
	"repro/internal/gen"
)

// mapStore is the flat-hash alternative to the paper's B-tree dedup store.
type mapStore map[string]struct{}

func (m mapStore) Insert(key []byte) bool {
	if _, ok := m[string(key)]; ok {
		return false
	}
	m[string(key)] = struct{}{}
	return true
}

// TestStoreChoiceDoesNotChangeOutput pins the ablation's precondition:
// the dedup store is interchangeable.
func TestStoreChoiceDoesNotChangeOutput(t *testing.T) {
	g := gen.ER(14, 14, 2.5, 5)
	base := ITraversal(1)
	want, _, err := Collect(g, base)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := diskstore.Open(diskstore.Options{Dir: t.TempDir(), FlushKeys: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for name, store := range map[string]SolutionStore{
		"map":  mapStore{},
		"disk": ds,
	} {
		opts := base
		opts.Store = store
		got, _, err := Collect(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s store: %d MBPs, want %d", name, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s store: mismatch at %d", name, i)
			}
		}
	}
}

// BenchmarkDedupStores is the store ablation DESIGN.md calls out: the
// paper prescribes a B-tree (ordered, O(log n) probes); a hash map trades
// order for speed; the disk store trades speed for unbounded capacity.
func BenchmarkDedupStores(b *testing.B) {
	g := gen.ER(60, 60, 4, 42)
	run := func(b *testing.B, mk func(b *testing.B) SolutionStore) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := ITraversal(1)
			opts.Store = mk(b)
			if _, err := Enumerate(g, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("BTree", func(b *testing.B) {
		run(b, func(*testing.B) SolutionStore { return &btree.Tree{} })
	})
	b.Run("Map", func(b *testing.B) {
		run(b, func(*testing.B) SolutionStore { return mapStore{} })
	})
	b.Run("Disk", func(b *testing.B) {
		run(b, func(b *testing.B) SolutionStore {
			ds, err := diskstore.Open(diskstore.Options{Dir: b.TempDir(), FlushKeys: 1 << 12})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { ds.Close() })
			return ds
		})
	})
}

// naiveRightAddable is the reference implementation of the right-shrinking
// test: scan every right vertex outside rp/h.R. rightAddable's pigeonhole
// optimization must agree with it.
func naiveRightAddable(e *engine, lcur, rp, hR []int32, kL, kR int) bool {
	g := e.g
	inSet := func(a []int32, x int32) bool { return sortedContains(a, x) }
	for u := int32(0); u < int32(g.NumRight()); u++ {
		if inSet(rp, u) || inSet(hR, u) {
			continue
		}
		// u's own budget.
		miss := 0
		for _, w := range lcur {
			if !g.HasEdge(w, u) {
				miss++
			}
		}
		if miss > kR {
			continue
		}
		// Members of lcur at exactly kL misses within rp must connect u.
		ok := true
		for _, w := range lcur {
			wMiss := len(rp) - sortedIntersectCount(g.NeighL(w), rp)
			if wMiss == kL && !g.HasEdge(w, u) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// withRightHub returns g plus one right vertex adjacent to every left
// vertex but ids 0..miss-1, so the hub stays outside solutions that hold
// more than k of those.
func withRightHub(g *bigraph.Graph, miss int) *bigraph.Graph {
	hub := int32(g.NumRight())
	var edges [][2]int32
	g.Edges(func(v, u int32) bool {
		edges = append(edges, [2]int32{v, u})
		return true
	})
	for v := int32(miss); v < int32(g.NumLeft()); v++ {
		edges = append(edges, [2]int32{v, hub})
	}
	return bigraph.FromEdges(g.NumLeft(), g.NumRight()+1, edges)
}

// recomputedLtight returns the members of lcur \ {v} at kL misses toward
// rp, counted from scratch: the Ltight rightAddable expects when the
// probe is not a local solution EnumAlmostSat emitted.
func recomputedLtight(g *bigraph.Graph, lcur, rp []int32, v int32, kL int) []int32 {
	var out []int32
	for _, w := range lcur {
		if w != v && len(rp)-sortedIntersectCount(g.NeighL(w), rp) == kL {
			out = append(out, w)
		}
	}
	return out
}

// TestRightAddablePigeonholeAgreesWithNaive probes the pigeonhole-
// optimized rightAddable against the naive full scan on every emitted
// solution with every possible added left vertex, passing Ltight
// recomputed from scratch. On the first few graphs it also probes every
// local solution EnumAlmostSat finds there, with the Ltight EAS hands
// across.
func TestRightAddablePigeonholeAgreesWithNaive(t *testing.T) {
	graphs := make([]*bigraph.Graph, 0, 9)
	for seed := int64(0); seed < 8; seed++ {
		graphs = append(graphs, gen.ER(12, 12, 2, seed))
	}
	// A right hub, whose fit test gallops lcur into the hub's neighbor list.
	graphs = append(graphs, withRightHub(gen.ER(20, 8, 1, 6), 3))
	const easFedGraphs = 4 // graphs[:4] and the hub also probe local solutions
	for _, c := range []struct{ kL, kR int }{{1, 1}, {2, 2}, {1, 2}} {
		for gi, g := range graphs {
			easFed := gi < easFedGraphs || gi == len(graphs)-1
			opts := ITraversal(c.kL)
			opts.KLeft, opts.KRight = c.kL, c.kR
			e := &engine{g: g, gT: g.Transpose(), opts: opts, kL: c.kL, kR: c.kR, store: &btree.Tree{}}
			checked, fed := 0, 0
			probe := func(p biplex.Pair, lcur, rp, ltight []int32, v int32, kind string) {
				vMiss := len(rp) - sortedIntersectCount(g.NeighL(v), rp)
				want := naiveRightAddable(e, lcur, rp, p.R, c.kL, c.kR)
				if got := e.rightAddable(g, p, lcur, rp, ltight, vMiss, v, c.kL, c.kR); got != want {
					t.Fatalf("k=%v graph %d: %s rightAddable=%v naive=%v for v=%d lcur=%v rp=%v on %v",
						c, gi, kind, got, want, v, lcur, rp, p)
				}
			}
			_, err := Enumerate(g, opts, func(p biplex.Pair) bool {
				for v := int32(0); v < int32(g.NumLeft()); v++ {
					if sortedContains(p.L, v) {
						continue
					}
					lcur := sortedInsert(append([]int32(nil), p.L...), v)
					probe(p, lcur, p.R, recomputedLtight(g, lcur, p.R, v, c.kL), v, "whole-solution")
					checked++
					if !easFed {
						continue
					}
					eachLocal(g, c.kL, c.kR, p, v, EASL2R2, func(lp, rp, ltight []int32) {
						probe(p, sortedInsert(append([]int32(nil), lp...), v), rp, ltight, v, "EAS-fed")
						fed++
					})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 || (easFed && fed == 0) {
				t.Fatalf("k=%v graph %d: %d whole-solution probes, %d EAS-fed", c, gi, checked, fed)
			}
		}
	}
}

// TestRightAddableAllocFree pins the right-shrinking filter's zero-
// allocation steady state: once its engine scratch is warm, a call
// allocates nothing.
func TestRightAddableAllocFree(t *testing.T) {
	g := gen.ER(12, 12, 2, 3)
	e := &engine{g: g, gT: g.Transpose(), opts: ITraversal(1), kL: 1, kR: 1, store: &btree.Tree{}}
	type probe struct {
		h              biplex.Pair
		lcur, rp, tght []int32
		vMiss          int
		v              int32
	}
	var probes []probe
	if _, err := Enumerate(g, ITraversal(1), func(p biplex.Pair) bool {
		for v := int32(0); v < int32(g.NumLeft()) && len(probes) < 400; v++ {
			if sortedContains(p.L, v) {
				continue
			}
			eachLocal(g, 1, 1, p, v, EASL2R2, func(lp, rp, ltight []int32) {
				probes = append(probes, probe{
					h:     p,
					lcur:  sortedInsert(append([]int32(nil), lp...), v),
					rp:    append([]int32(nil), rp...),
					tght:  append([]int32{}, ltight...),
					vMiss: len(rp) - sortedIntersectCount(g.NeighL(v), rp),
					v:     v,
				})
			})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("no probes")
	}
	addable := 0
	run := func() {
		addable = 0
		for _, pr := range probes {
			if e.rightAddable(g, pr.h, pr.lcur, pr.rp, pr.tght, pr.vMiss, pr.v, 1, 1) {
				addable++
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("warmed rightAddable allocates %.1f times per %d probes", allocs, len(probes))
	}
	if addable == 0 || addable == len(probes) {
		t.Fatalf("probes exercise one outcome only: %d of %d addable", addable, len(probes))
	}
}

// BenchmarkRightAddable compares the pigeonhole candidate pool against the
// naive full right-side scan (the ablation behind Section 3.4's filter).
func BenchmarkRightAddable(b *testing.B) {
	g := gen.ER(400, 400, 6, 42)
	e := &engine{g: g, gT: g.Transpose(), opts: ITraversal(1), kL: 1, kR: 1, store: &btree.Tree{}}
	var sols []biplex.Pair
	opts := ITraversal(1)
	opts.MaxResults = 50
	if _, err := Enumerate(g, opts, func(p biplex.Pair) bool {
		sols = append(sols, p.Clone())
		return true
	}); err != nil {
		b.Fatal(err)
	}
	type probe struct {
		p            biplex.Pair
		lcur, ltight []int32
		vm           int
		v            int32
	}
	var probes []probe
	for _, p := range sols {
		for v := int32(0); v < int32(g.NumLeft()) && len(probes) < 500; v++ {
			if sortedContains(p.L, v) {
				continue
			}
			lcur := sortedInsert(append([]int32(nil), p.L...), v)
			vm := len(p.R) - sortedIntersectCount(g.NeighL(v), p.R)
			probes = append(probes, probe{p, lcur, recomputedLtight(g, lcur, p.R, v, 1), vm, v})
		}
	}
	b.Run("Pigeonhole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			e.rightAddable(g, pr.p, pr.lcur, pr.p.R, pr.ltight, pr.vm, pr.v, 1, 1)
		}
	})
	b.Run("NaiveScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			naiveRightAddable(e, pr.lcur, pr.p.R, pr.p.R, 1, 1)
		}
	})
}
