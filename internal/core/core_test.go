package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bigraph"
	"repro/internal/biplex"
	"repro/internal/gen"
)

// equalSets compares two key-sorted solution slices.
func equalSets(a, b []biplex.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key()) != string(b[i].Key()) {
			return false
		}
	}
	return true
}

// frameworks lists every option combination whose output must equal the
// brute-force oracle.
func frameworks(k int) map[string]Options {
	it := ITraversal(k)
	itES := it
	itES.Exclusion = false
	itESRS := itES
	itESRS.RightShrinking = false
	bt := BTraversal(k)
	btInf := bt
	btInf.Variant = EASInflation
	itL1R1 := it
	itL1R1.Variant = EASL1R1
	itL1R2 := it
	itL1R2.Variant = EASL1R2
	itL2R1 := it
	itL2R1.Variant = EASL2R1
	itInf := it
	itInf.Variant = EASInflation
	return map[string]Options{
		"iTraversal":           it,
		"iTraversal-ES":        itES,
		"iTraversal-ES-RS":     itESRS,
		"bTraversal":           bt,
		"bTraversal-Inflation": btInf,
		"iTraversal-L1R1":      itL1R1,
		"iTraversal-L1R2":      itL1R2,
		"iTraversal-L2R1":      itL2R1,
		"iTraversal-Inflation": itInf,
	}
}

func checkAllFrameworks(t *testing.T, g *bigraph.Graph, k int) {
	t.Helper()
	want := biplex.BruteForce(g, k)
	for name, opts := range frameworks(k) {
		got, _, err := Collect(g, opts)
		if err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
		if !equalSets(got, want) {
			t.Errorf("%s k=%d: got %d solutions, oracle %d\n got:  %v\n want: %v",
				name, k, len(got), len(want), got, want)
		}
	}
}

func TestTinyGraphAllFrameworks(t *testing.T) {
	// The path graph from the biplex package tests.
	g := bigraph.FromEdges(2, 2, [][2]int32{{0, 0}, {0, 1}, {1, 1}})
	checkAllFrameworks(t, g, 1)
}

func TestCompleteBipartite(t *testing.T) {
	var edges [][2]int32
	for v := int32(0); v < 3; v++ {
		for u := int32(0); u < 3; u++ {
			edges = append(edges, [2]int32{v, u})
		}
	}
	g := bigraph.FromEdges(3, 3, edges)
	for k := 1; k <= 2; k++ {
		checkAllFrameworks(t, g, k)
	}
}

func TestEmptyEdgeSet(t *testing.T) {
	g := bigraph.FromEdges(3, 3, nil)
	for k := 1; k <= 2; k++ {
		checkAllFrameworks(t, g, k)
	}
}

func TestOneSidedGraphs(t *testing.T) {
	checkAllFrameworks(t, bigraph.FromEdges(4, 0, nil), 1)
	checkAllFrameworks(t, bigraph.FromEdges(0, 4, nil), 1)
	checkAllFrameworks(t, bigraph.FromEdges(1, 1, [][2]int32{{0, 0}}), 1)
}

// TestRandomGraphsVsOracle is the main correctness gate: every framework
// variant must reproduce the brute-force solution set on random graphs.
func TestRandomGraphsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	for trial := 0; trial < 60; trial++ {
		nl := 2 + rng.Intn(5)
		nr := 2 + rng.Intn(5)
		density := 0.5 + rng.Float64()*2.5
		g := gen.ER(nl, nr, density, rng.Int63())
		k := 1 + rng.Intn(2)
		checkAllFrameworks(t, g, k)
	}
}

// TestRandomGraphsK3 exercises the deeper k=3 combinatorics on a smaller
// trial budget.
func TestRandomGraphsK3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g := gen.ER(4+rng.Intn(3), 4+rng.Intn(3), 1+rng.Float64()*2, rng.Int63())
		checkAllFrameworks(t, g, 3)
	}
}

func TestKValidation(t *testing.T) {
	g := gen.ER(3, 3, 1, 1)
	if _, err := Enumerate(g, Options{K: 0}, nil); err == nil {
		t.Fatal("K=0 accepted")
	}
	bt := BTraversal(1)
	bt.ThetaR = 2
	if _, err := Enumerate(g, bt, nil); err == nil {
		t.Fatal("Theta with bTraversal accepted")
	}
}

func TestMaxResults(t *testing.T) {
	g := gen.ER(6, 6, 2, 5)
	all, _, err := Collect(g, ITraversal(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Skip("graph too small for the truncation test")
	}
	opts := ITraversal(1)
	opts.MaxResults = 3
	var got []biplex.Pair
	st, err := Enumerate(g, opts, func(p biplex.Pair) bool {
		got = append(got, p.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || st.Solutions != 3 {
		t.Fatalf("MaxResults=3 emitted %d (stats %d)", len(got), st.Solutions)
	}
}

func TestEmitStop(t *testing.T) {
	g := gen.ER(6, 6, 2, 5)
	n := 0
	_, err := Enumerate(g, ITraversal(1), func(biplex.Pair) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("emit stop after %d", n)
	}
}

// TestThetaMatchesFilteredOracle verifies the large-MBP extension: the
// Theta-pruned run must produce exactly the oracle MBPs with both sides
// at least Theta.
func TestThetaMatchesFilteredOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := gen.ER(3+rng.Intn(5), 3+rng.Intn(5), 1+rng.Float64()*2.5, rng.Int63())
		k := 1 + rng.Intn(2)
		theta := 2 + rng.Intn(2)
		var want []biplex.Pair
		for _, p := range biplex.BruteForce(g, k) {
			if len(p.L) >= theta && len(p.R) >= theta {
				want = append(want, p)
			}
		}
		opts := ITraversal(k)
		opts.ThetaL, opts.ThetaR = theta, theta
		got, _, err := Collect(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(got, want) {
			t.Fatalf("theta=%d k=%d trial %d: got %v want %v", theta, k, trial, got, want)
		}
	}
}

// TestSolutionsAreMaximalBiplexes re-validates engine output invariants
// on mid-sized graphs where the oracle is unavailable.
func TestSolutionsAreMaximalBiplexes(t *testing.T) {
	g := gen.ER(20, 20, 2.5, 3)
	for k := 1; k <= 2; k++ {
		st, err := Enumerate(g, ITraversal(k), func(p biplex.Pair) bool {
			if !biplex.IsBiplex(g, p.L, p.R, k) {
				t.Fatalf("k=%d: emitted non-biplex %v", k, p)
			}
			if !biplex.IsMaximal(g, p.L, p.R, k) {
				t.Fatalf("k=%d: emitted non-maximal %v", k, p)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Solutions == 0 {
			t.Fatalf("k=%d: no solutions on a 20x20 graph", k)
		}
	}
}

// TestNoDuplicateEmissions checks each MBP is emitted exactly once.
func TestNoDuplicateEmissions(t *testing.T) {
	g := gen.ER(15, 15, 2, 11)
	for name, opts := range frameworks(1) {
		if name == "bTraversal-Inflation" || name == "bTraversal" {
			continue // too slow at this size; covered on small graphs
		}
		seen := map[string]bool{}
		_, err := Enumerate(g, opts, func(p biplex.Pair) bool {
			key := string(p.Key())
			if seen[key] {
				t.Fatalf("%s: duplicate emission %v", name, p)
			}
			seen[key] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkMonotonicity checks the paper's sparsification claim on random
// graphs: links(G_E) ≤ links(G_R) ≤ links(G_L) ≤ links(G), with all four
// traversals finding the same solutions.
func TestLinkMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ER(4, 4, 1.5, seed)
		k := 1
		it := ITraversal(k)
		itES := it
		itES.Exclusion = false
		itESRS := itES
		itESRS.RightShrinking = false
		bt := BTraversal(k)

		lE, sE, err := SolutionGraphLinks(g, it)
		if err != nil {
			return false
		}
		lR, sR, _ := SolutionGraphLinks(g, itES)
		lL, sL, _ := SolutionGraphLinks(g, itESRS)
		lG, sG, _ := SolutionGraphLinks(g, bt)
		if sE != sR || sR != sL || sL != sG {
			return false // all variants must reach every solution
		}
		return lE <= lR && lR <= lL && lL <= lG
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposedEnumeration checks the right-anchored symmetric variant:
// running iTraversal on the transpose and swapping sides must give the
// same solution set (Section 3.2 footnote, Section 6.2).
func TestTransposedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := gen.ER(3+rng.Intn(4), 3+rng.Intn(4), 1.5, rng.Int63())
		want := biplex.BruteForce(g, 1)
		var got []biplex.Pair
		_, err := Enumerate(g.Transpose(), ITraversal(1), func(p biplex.Pair) bool {
			got = append(got, biplex.Pair{L: append([]int32(nil), p.R...), R: append([]int32(nil), p.L...)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		biplex.SortPairs(got)
		if !equalSets(got, want) {
			t.Fatalf("trial %d: transposed run diverged", trial)
		}
	}
}

func TestDescribe(t *testing.T) {
	if got := Describe(ITraversal(2)); got != "iTraversal(k=2,L2.0+R2.0)" {
		t.Fatalf("Describe = %q", got)
	}
	if got := Describe(BTraversal(1)); got != "bTraversal(k=1,L2.0+R2.0)" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestSmallestDegreeMembers(t *testing.T) {
	// Degrees: v0=3, v1=1, v2=2, v3=0.
	g := bigraph.FromEdges(4, 3, [][2]int32{
		{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {2, 1},
	})
	lcur := []int32{0, 1, 2, 3}
	var pick degreePick
	got := pick.smallest(g, lcur, 2, true)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// The two smallest degrees are v3 (0) and v1 (1).
	seen := map[int32]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen[3] || !seen[1] {
		t.Fatalf("smallest-degree pick = %v, want {1,3}", got)
	}
	// n >= len returns the input unchanged.
	if out := pick.smallest(g, lcur, 9, true); len(out) != 4 {
		t.Fatalf("full pick = %v", out)
	}
	// On the right side the degrees are u0=3, u1=2, u2=1.
	got = pick.smallest(g, []int32{0, 1, 2}, 1, false)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("right-side pick = %v, want [2]", got)
	}
}

func TestEnumAlmostSatOnce(t *testing.T) {
	g := gen.ER(6, 6, 2, 3)
	sols := biplex.BruteForce(g, 1)
	for _, h := range sols {
		for v := int32(0); v < int32(g.NumLeft()); v++ {
			if sortedContains(h.L, v) {
				continue
			}
			want := len(referenceLocalSolutions(g, h.L, h.R, v, 1))
			for _, variant := range []EASVariant{EASL2R2, EASInflation} {
				if got := EnumAlmostSatOnce(g, h.L, h.R, v, 1, variant, nil); got != want {
					t.Fatalf("variant %v: %d locals, reference %d", variant, got, want)
				}
			}
			// A pre-tripped cancel stops the enumeration early.
			if got := EnumAlmostSatOnce(g, h.L, h.R, v, 1, EASL2R2, func() bool { return true }); got > want {
				t.Fatalf("cancelled run returned %d > %d", got, want)
			}
			return
		}
	}
	t.Skip("no expandable solution")
}

func TestDescribeVariants(t *testing.T) {
	itES := ITraversal(1)
	itES.Exclusion = false
	if got := Describe(itES); got != "iTraversal-ES(k=1,L2.0+R2.0)" {
		t.Fatalf("Describe = %q", got)
	}
	itESRS := itES
	itESRS.RightShrinking = false
	if got := Describe(itESRS); got != "iTraversal-ES-RS(k=1,L2.0+R2.0)" {
		t.Fatalf("Describe = %q", got)
	}
	odd := Options{K: 1, LeftAnchored: true}
	if got := Describe(odd); got != "custom(k=1,L2.0+R2.0)" {
		t.Fatalf("Describe = %q", got)
	}
}
