package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/biplex"
	"repro/internal/gen"
)

// referenceLocalSolutions computes the local solutions of the
// almost-satisfying graph (L ∪ {v}, R) by brute force over the induced
// subgraph: maximal-within k-biplexes containing v.
func referenceLocalSolutions(g *bigraph.Graph, L, R []int32, v int32, k int) []biplex.Pair {
	lset := append(append([]int32(nil), L...), v)
	sub, lback, rback := g.InducedSubgraph(lset, R)
	vLocal := int32(len(L)) // v is last in lset
	var out []biplex.Pair
	for _, p := range biplex.BruteForce(sub, k) {
		containsV := false
		var lp, rp []int32
		for _, x := range p.L {
			if x == vLocal {
				containsV = true
				continue
			}
			lp = append(lp, lback[x])
		}
		for _, y := range p.R {
			rp = append(rp, rback[y])
		}
		if containsV {
			sortInt32(lp)
			sortInt32(rp)
			out = append(out, biplex.Pair{L: lp, R: rp})
		}
	}
	biplex.SortPairs(out)
	return out
}

// eachLocal runs one EnumAlmostSat invocation on (h.L ∪ {v}, h.R) and
// hands fn every local solution with the Ltight the variant passes
// across. The slices are valid only during fn.
func eachLocal(g *bigraph.Graph, kL, kR int, h biplex.Pair, v int32, variant EASVariant, fn func(lp, rp, ltight []int32)) {
	missL := make(map[int32]int, len(h.R))
	for _, u := range h.R {
		missL[u] = len(h.L) - sortedIntersectCount(g.NeighR(u), h.L)
	}
	enumAlmostSat(easInput{g: g, kL: kL, kR: kR, L: h.L, R: h.R, missL: missL, v: v, variant: variant},
		func(lp, rp, ltight []int32) bool {
			fn(lp, rp, ltight)
			return true
		})
}

// TestEASLtightMatchesRecomputed checks the hand-off the right-shrinking
// filter relies on: for every variant, the Ltight passed with a
// local solution (Lp, Rp) is exactly {w ∈ Lp : δ̄(w, Rp) = kL},
// ascending, recomputed here from scratch.
func TestEASLtightMatchesRecomputed(t *testing.T) {
	type cfg struct {
		kL, kR   int
		variants []EASVariant
	}
	refined := []EASVariant{EASL2R2, EASL1R1, EASL1R2, EASL2R1}
	cfgs := []cfg{
		{1, 1, append(refined, EASInflation)},
		{2, 2, append(refined, EASInflation)},
		{3, 3, refined},
		{1, 2, refined},
		{2, 1, refined},
	}
	for _, c := range cfgs {
		for seed := int64(0); seed < 5; seed++ {
			g := gen.ER(10, 10, 2, seed)
			opts := ITraversal(c.kL)
			opts.KLeft, opts.KRight = c.kL, c.kR
			opts.MaxResults = 25
			sols, _, err := Collect(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			locals := 0
			for _, h := range sols {
				for v := int32(0); v < int32(g.NumLeft()); v++ {
					if sortedContains(h.L, v) {
						continue
					}
					for _, variant := range c.variants {
						eachLocal(g, c.kL, c.kR, h, v, variant, func(lp, rp, ltight []int32) {
							locals++
							var want []int32
							for _, w := range lp {
								if len(rp)-sortedIntersectCount(g.NeighL(w), rp) == c.kL {
									want = append(want, w)
								}
							}
							if !slices.Equal(ltight, want) {
								t.Fatalf("k=(%d,%d) seed=%d %v: Ltight %v, recomputed %v (Lp=%v Rp=%v v=%d)",
									c.kL, c.kR, seed, variant, ltight, want, lp, rp, v)
							}
						})
					}
				}
			}
			if locals == 0 {
				t.Fatalf("k=(%d,%d) seed=%d: no local solutions", c.kL, c.kR, seed)
			}
		}
	}
}

// collectEAS runs one EnumAlmostSat invocation and gathers its output.
func collectEAS(g *bigraph.Graph, L, R []int32, v int32, k int, variant EASVariant) []biplex.Pair {
	missL := make(map[int32]int, len(R))
	for _, u := range R {
		missL[u] = len(L) - sortedIntersectCount(g.NeighR(u), L)
	}
	var out []biplex.Pair
	enumAlmostSat(easInput{g: g, kL: k, kR: k, L: L, R: R, missL: missL, v: v, variant: variant},
		func(lp, rp, _ []int32) bool {
			out = append(out, biplex.Pair{
				L: append([]int32(nil), lp...),
				R: append([]int32(nil), rp...),
			})
			return true
		})
	biplex.SortPairs(out)
	return out
}

// TestEASVariantsVsReference cross-checks every EnumAlmostSat variant
// against the brute-force local-solution oracle on random
// almost-satisfying graphs built from real solutions.
func TestEASVariantsVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	variants := []EASVariant{EASL2R2, EASL1R1, EASL1R2, EASL2R1, EASInflation}
	trials := 0
	for trials < 80 {
		nl, nr := 3+rng.Intn(4), 3+rng.Intn(4)
		g := gen.ER(nl, nr, 0.8+rng.Float64()*2, rng.Int63())
		k := 1 + rng.Intn(2)
		sols := biplex.BruteForce(g, k)
		if len(sols) == 0 {
			continue
		}
		h := sols[rng.Intn(len(sols))]
		if len(h.L) >= nl {
			continue // no vertex to add
		}
		// Pick a random left vertex outside h.L.
		var outside []int32
		for v := int32(0); v < int32(nl); v++ {
			if !sortedContains(h.L, v) {
				outside = append(outside, v)
			}
		}
		v := outside[rng.Intn(len(outside))]
		want := referenceLocalSolutions(g, h.L, h.R, v, k)
		for _, variant := range variants {
			got := collectEAS(g, h.L, h.R, v, k, variant)
			if !equalSets(got, want) {
				t.Fatalf("variant %v k=%d on %v + v%d:\n got  %v\n want %v\n graph %v",
					variant, k, h, v, got, want, dumpEdges(g))
			}
		}
		trials++
	}
}

// TestEASKeepsNeighborsOfV verifies Lemma 4.1 on engine output: every
// local solution contains every right vertex adjacent to v.
func TestEASKeepsNeighborsOfV(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		g := gen.ER(5, 5, 1.5, rng.Int63())
		k := 1
		sols := biplex.BruteForce(g, k)
		if len(sols) == 0 {
			continue
		}
		h := sols[rng.Intn(len(sols))]
		for v := int32(0); v < int32(g.NumLeft()); v++ {
			if sortedContains(h.L, v) {
				continue
			}
			rkeep := sortedIntersect(nil, h.R, g.NeighL(v))
			for _, loc := range collectEAS(g, h.L, h.R, v, k, EASL2R2) {
				for _, u := range rkeep {
					if !sortedContains(loc.R, u) {
						t.Fatalf("local solution %v drops Γ(v,R) member %d", loc, u)
					}
				}
			}
		}
	}
}

// TestEASMinRight verifies large-MBP local-solution pruning: with
// minRight set, exactly the big-right local solutions survive.
func TestEASMinRight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := gen.ER(5, 5, 2, rng.Int63())
		k := 1
		sols := biplex.BruteForce(g, k)
		if len(sols) == 0 {
			continue
		}
		h := sols[rng.Intn(len(sols))]
		var v int32 = -1
		for w := int32(0); w < int32(g.NumLeft()); w++ {
			if !sortedContains(h.L, w) {
				v = w
				break
			}
		}
		if v < 0 {
			continue
		}
		minRight := 2
		missL := make(map[int32]int, len(h.R))
		for _, u := range h.R {
			missL[u] = len(h.L) - sortedIntersectCount(g.NeighR(u), h.L)
		}
		var got []biplex.Pair
		enumAlmostSat(easInput{g: g, kL: k, kR: k, L: h.L, R: h.R, missL: missL, v: v,
			variant: EASL2R2, minRight: minRight},
			func(lp, rp, _ []int32) bool {
				got = append(got, biplex.Pair{L: append([]int32(nil), lp...), R: append([]int32(nil), rp...)})
				return true
			})
		biplex.SortPairs(got)
		var want []biplex.Pair
		for _, p := range collectEAS(g, h.L, h.R, v, k, EASL2R2) {
			if len(p.R) >= minRight {
				want = append(want, p)
			}
		}
		if !equalSets(got, want) {
			t.Fatalf("minRight filter diverged: got %v want %v", got, want)
		}
	}
}

// TestEASEarlyStop checks the emit-false contract.
func TestEASEarlyStop(t *testing.T) {
	g := gen.ER(6, 6, 2, 3)
	sols := biplex.BruteForce(g, 1)
	for _, h := range sols {
		for v := int32(0); v < int32(g.NumLeft()); v++ {
			if sortedContains(h.L, v) {
				continue
			}
			missL := map[int32]int{}
			for _, u := range h.R {
				missL[u] = len(h.L) - sortedIntersectCount(g.NeighR(u), h.L)
			}
			n := 0
			_, done := enumAlmostSat(easInput{g: g, kL: 1, kR: 1, L: h.L, R: h.R, missL: missL, v: v, variant: EASL2R2},
				func(lp, rp, _ []int32) bool {
					n++
					return false
				})
			if n > 1 {
				t.Fatalf("emitted %d after stop", n)
			}
			if n == 1 && done {
				t.Fatal("done=true after emit returned false")
			}
			return
		}
	}
	t.Skip("no expandable solution found")
}

func TestEASVariantString(t *testing.T) {
	names := map[EASVariant]string{
		EASL2R2: "L2.0+R2.0", EASL1R1: "L1.0+R1.0", EASL1R2: "L1.0+R2.0",
		EASL2R1: "L2.0+R1.0", EASInflation: "Inflation", EASVariant(99): "unknown",
	}
	for v, want := range names {
		if got := v.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
	}
}

func dumpEdges(g *bigraph.Graph) [][2]int32 {
	var out [][2]int32
	g.Edges(func(v, u int32) bool {
		out = append(out, [2]int32{v, u})
		return true
	})
	return out
}
