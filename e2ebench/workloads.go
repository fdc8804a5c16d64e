package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	kbiplex "repro"
	"repro/client"
	"repro/internal/core"
)

// workload is one traffic mix: the graphs the server loads, one period
// of the closed-loop operation stream, and the references every read is
// checked against. A run replays whole periods, so two runs of the same
// seed see exactly the same mix of operations.
type workload struct {
	// cacheBytes is server.Config.ResultCacheBytes (-1 disables the
	// result cache, 0 keeps the default size).
	cacheBytes int64
	// compactOps is server.Config.JournalCompactOps (0 = default).
	compactOps int
	graphs     []graphSpec
	// warm runs once per graph at the end of set-up so lazy per-graph
	// state (engine, core index) is built before timing.
	warm kbiplex.Query
	// period is one period of the measured operation stream.
	period []op
	// prefill runs once, untimed, between set-up and the measured phase.
	prefill []op
	// probe is a write sequence for workloads whose stream has no
	// writes, so every workload reports the write latency metrics. With
	// interleave > 0 that many probe writes run after every period, on a
	// graph no read touches, and are left out of the measured phase's
	// totals; otherwise the probe runs once after the measured phase.
	probe      []op
	interleave int
	refs       map[refKey]*reference
	// states holds the graph content of every reachable (graph, state).
	states map[stateKey]*kbiplex.Graph
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
	// checks are correctness assertions made while generating inputs.
	checks []string
}

type graphSpec struct {
	name    string
	persist bool
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

// op is one client operation. A read submits q as a /v1 job and drains
// its results; a write applies edits through MutateEdges.
type op struct {
	kind  opKind
	graph string
	q     kbiplex.Query
	// fresh gives the read a cache key no earlier operation used (a
	// unique MaxResults above any solution count), so it always misses
	// the result cache while returning the full answer.
	fresh bool
	edits []client.EdgeOp
	// state is the graph state the read sees or the write leaves behind.
	state int
	// edges is the edge count a write leaves behind.
	edges int
}

// freshBase offsets the MaxResults of fresh reads; it exceeds every
// solution count the workloads produce.
const freshBase = 1 << 20

// query returns the query op i of the stream submits.
func (o op) query(i int) kbiplex.Query {
	q := o.q
	if o.fresh {
		q.MaxResults = freshBase + i
	}
	return q
}

type stateKey struct {
	graph string
	state int
}

type refKey struct {
	graph      string
	state      int
	minL, minR int
}

func keyOf(o op) refKey {
	return refKey{graph: o.graph, state: o.state, minL: o.q.MinLeft, minR: o.q.MinRight}
}

// reference is the complete answer of one (graph state, thresholds)
// pair, computed before timing with kbiplex.EnumerateAll — a path that
// shares no server, jobs or client code with the measured one.
type reference struct {
	count   int64
	sum     uint64
	members map[uint64]struct{}
}

// expect is the solution count of a read capped at max (0 = uncapped).
func (r *reference) expect(max int) int64 {
	if max > 0 && int64(max) < r.count {
		return int64(max)
	}
	return r.count
}

func newReference(sols []kbiplex.Solution) *reference {
	r := &reference{count: int64(len(sols)), members: make(map[uint64]struct{}, len(sols))}
	for _, s := range sols {
		h := solutionHash(s)
		r.sum += h
		r.members[h] = struct{}{}
	}
	return r
}

// solutionHash fingerprints one solution; summing it over a set gives
// an order-independent set hash.
func solutionHash(s kbiplex.Solution) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range s.L {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
	}
	h = (h ^ 1<<40) * 0x100000001b3 // side separator no vertex id can produce
	for _, u := range s.R {
		h = (h ^ uint64(uint32(u))) * 0x100000001b3
	}
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	h ^= h >> 27
	return h
}

func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "full-enum":
		return fullEnum(seed)
	case "selective-mix":
		return selectiveMix(seed)
	case "write-read":
		return writeRead(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want full-enum, selective-mix or write-read)", name)
}

// full-enum: traversal-bound complete enumerations with the result cache
// off. The solution-count band holds the work per query steady across
// seeds (unbanded ER 20×20 graphs range over ±10%).
const (
	feGraphs   = 8
	feSide     = 20
	feDensity  = 2
	feMinSols  = 2250
	feMaxSols  = 2400
	feMaxTries = 400
	// feProbeGraph takes the interleaved write probe; no read touches it.
	feProbeGraph = "w"
)

func fullEnum(seed int64) (*workload, error) {
	w := &workload{
		cacheBytes: -1, setupReps: 41,
		warm: kbiplex.Query{K: 1, MaxResults: 1},
		refs: map[refKey]*reference{}, states: map[stateKey]*kbiplex.Graph{},
	}
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; len(w.graphs) < feGraphs; tries++ {
		if tries == feMaxTries {
			return nil, fmt.Errorf("full-enum: no graph in the solution band after %d draws", tries)
		}
		g := kbiplex.RandomBipartite(feSide, feSide, feDensity, rng.Int63())
		sols, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
		if err != nil {
			return nil, err
		}
		if len(sols) < feMinSols || len(sols) > feMaxSols {
			continue
		}
		name := fmt.Sprintf("g%d", len(w.graphs))
		w.graphs = append(w.graphs, graphSpec{name: name})
		w.states[stateKey{name, 0}] = g
		w.refs[refKey{graph: name}] = newReference(sols)
		w.period = append(w.period, op{kind: opRead, graph: name, q: kbiplex.Query{K: 1}})
		// The paper's polynomial-delay argument (§3.5): at least one
		// solution every two expansions.
		st, err := core.Enumerate(g, core.ITraversal(1), nil)
		if err != nil {
			return nil, err
		}
		if st.Expansions > 2*st.Solutions || st.Solutions != int64(len(sols)) {
			w.checks = append(w.checks, fmt.Sprintf("%s: core expansions %d, solutions %d, reference %d",
				name, st.Expansions, st.Solutions, len(sols)))
		}
	}
	// Writes to a 20×20 graph take under 0.1 ms: a probe run back to
	// back would fit in a fraction of a second, where one stall of the
	// box moves its p95. Spread over the measured phase, on a graph of
	// its own, its tail is as steady as the reads'.
	pg := kbiplex.RandomBipartite(feSide, feSide, feDensity, rng.Int63())
	w.graphs = append(w.graphs, graphSpec{name: feProbeGraph})
	w.states[stateKey{feProbeGraph, 0}] = pg
	w.probe = writeProbe(feProbeGraph, pg, pickEdges(rng, allEdges(pg), 8), 2)
	w.interleave = 8
	return w, nil
}

// selective-mix: large-MBP queries on one big persisted graph, mostly
// answered from the result cache. The head of the shape space (every
// threshold pair × four result caps) is drawn by a zipf over a fixed
// popularity order and prefilled before timing, so those reads hit.
// Every smMissEvery-th read is a fresh miss whose thresholds rotate
// through the selective corner [smTailLo, smMinHi]², where the
// (θ−k)-core is empty or tiny: misses are plan-bound, and every period
// holds each tail shape smTailRounds times.
const (
	smSide       = 50000
	smDensity    = 2
	smBlocks     = 16
	smMinLo      = 5
	smMinHi      = 12
	smTailLo     = 8
	smMissEvery  = 8
	smTailRounds = 2
	smZipfS      = 1.1
)

var smCaps = []int{0, 1, 10, 100}

func selectiveMix(seed int64) (*workload, error) {
	const graph = "sel"
	w := &workload{
		setupReps: 7,
		warm:      kbiplex.Query{K: 1, MinLeft: smMinLo, MinRight: smMinLo, MaxResults: 1},
		graphs:    []graphSpec{{name: graph, persist: true}},
		refs:      map[refKey]*reference{}, states: map[stateKey]*kbiplex.Graph{},
	}
	rng := rand.New(rand.NewSource(seed))
	g, blocks := plantedGraph(rng, smSide, smDensity, smBlocks)
	w.states[stateKey{graph, 0}] = g

	var keys []refKey
	for ml := smMinLo; ml <= smMinHi; ml++ {
		for mr := smMinLo; mr <= smMinHi; mr++ {
			keys = append(keys, refKey{graph: graph, minL: ml, minR: mr})
		}
	}
	if err := computeRefs(w, keys); err != nil {
		return nil, err
	}

	// The popularity order is part of the workload, not of the seed: the
	// seed changes the graph and the draws, never which shapes are hot.
	type shape struct{ ml, mr, cap int }
	var shapes []shape
	for _, k := range keys {
		for _, c := range smCaps {
			shapes = append(shapes, shape{k.minL, k.minR, c})
		}
	}
	rank := rand.New(rand.NewSource(1)).Perm(len(shapes))
	for _, s := range shapes {
		w.prefill = append(w.prefill, op{kind: opRead, graph: graph,
			q: kbiplex.Query{K: 1, MinLeft: s.ml, MinRight: s.mr, MaxResults: s.cap}})
	}
	var tail []refKey
	for _, k := range keys {
		if k.minL >= smTailLo && k.minR >= smTailLo {
			tail = append(tail, k)
		}
	}
	// One period's hits follow the zipf exactly — popularity rank r gets
	// its share of them — in an order the seed shuffles, so the seed
	// changes the graph and the order but never the mix.
	var hits []int
	for r, n := range zipfQuota(len(shapes), smZipfS, smTailRounds*len(tail)*(smMissEvery-1)) {
		for range n {
			hits = append(hits, rank[r])
		}
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	for range smTailRounds {
		for _, k := range tail {
			w.period = append(w.period, op{kind: opRead, graph: graph, fresh: true,
				q: kbiplex.Query{K: 1, MinLeft: k.minL, MinRight: k.minR}})
			for range smMissEvery - 1 {
				s := shapes[hits[0]]
				hits = hits[1:]
				w.period = append(w.period, op{kind: opRead, graph: graph,
					q: kbiplex.Query{K: 1, MinLeft: s.ml, MinRight: s.mr, MaxResults: s.cap}})
			}
		}
	}
	// A write copies the whole 200K-edge graph (about 0.3 s on a 2-CPU
	// box), so this probe is short; its p95 has two samples beyond it.
	w.probe = writeProbe(graph, g, blocks[0][:8], 40)
	return w, nil
}

// write-read: one client alternating an 8-op edge batch inside the
// planted blocks with three selective reads. The writes delete and
// re-insert a fixed set of batches (batch b is one diagonal of block b),
// so the graph only ever takes 1+wrBatches states and every read has a
// precomputed reference; every write invalidates the cached results of
// the state it leaves, so every read misses.
const (
	wrSide          = 5000
	wrDensity       = 2
	wrBlocks        = 16
	wrBatches       = 4
	wrBatchOps      = 8
	wrReadsPerWrite = 3
	wrCompactOps    = 64
)

var wrShapes = [][2]int{{8, 8}, {9, 7}, {7, 9}, {8, 9}, {9, 8}, {9, 9}}

func writeRead(seed int64) (*workload, error) {
	const graph = "wr"
	w := &workload{
		setupReps: 21, compactOps: wrCompactOps,
		warm:   kbiplex.Query{K: 1, MinLeft: 8, MinRight: 8, MaxResults: 1},
		graphs: []graphSpec{{name: graph, persist: true}},
		refs:   map[refKey]*reference{}, states: map[stateKey]*kbiplex.Graph{},
	}
	rng := rand.New(rand.NewSource(seed))
	g, blocks := plantedGraph(rng, wrSide, wrDensity, wrBlocks)
	w.states[stateKey{graph, 0}] = g
	batches := make([][][2]int32, wrBatches)
	for b := range batches {
		batches[b] = blocks[b][:wrBatchOps]
		w.states[stateKey{graph, b + 1}] = withoutEdges(g, batches[b])
	}

	var keys []refKey
	for s := 0; s <= wrBatches; s++ {
		for _, sh := range wrShapes {
			keys = append(keys, refKey{graph: graph, state: s, minL: sh[0], minR: sh[1]})
		}
	}
	if err := computeRefs(w, keys); err != nil {
		return nil, err
	}

	reads := 0
	addReads := func(state int) {
		for j := 0; j < wrReadsPerWrite; j++ {
			sh := wrShapes[reads%len(wrShapes)]
			reads++
			w.period = append(w.period, op{kind: opRead, graph: graph, state: state,
				q: kbiplex.Query{K: 1, MinLeft: sh[0], MinRight: sh[1]}})
		}
	}
	for b, batch := range batches {
		w.period = append(w.period, op{kind: opWrite, graph: graph, state: b + 1,
			edits: edgeOps("delete", batch), edges: g.NumEdges() - len(batch)})
		addReads(b + 1)
		w.period = append(w.period, op{kind: opWrite, graph: graph, state: 0,
			edits: edgeOps("insert", batch), edges: g.NumEdges()})
		addReads(0)
	}
	return w, nil
}

// plantedGraph draws an ER graph and plants vertex-disjoint
// near-bicliques on existing vertices: in a bl×br block, left member j
// misses right member j mod br. Block sizes and the missing pattern are
// fixed, so only the block positions and the ER background depend on
// the seed. It returns the graph and each block's edges in a fixed
// order: by diagonal offset, then by left member.
func plantedGraph(rng *rand.Rand, side int, density float64, blocks int) (*kbiplex.Graph, [][][2]int32) {
	base := kbiplex.RandomBipartite(side, side, density, rng.Int63())
	var b kbiplex.Builder
	b.SetSize(side, side)
	base.Edges(func(v, u int32) bool {
		b.AddEdge(v, u)
		return true
	})
	lperm, rperm := rng.Perm(side), rng.Perm(side)
	planted := make([][][2]int32, blocks)
	for i := range planted {
		bl, br := 6+i%5, 6+(i*3)%5
		ls, rs := lperm[:bl], rperm[:br]
		lperm, rperm = lperm[bl:], rperm[br:]
		for off := 1; off < br; off++ {
			for j, v := range ls {
				e := [2]int32{int32(v), int32(rs[(j+off)%br])}
				b.AddEdge(e[0], e[1])
				planted[i] = append(planted[i], e)
			}
		}
	}
	return b.Build(), planted
}

// zipfQuota splits total draws over n ranks in proportion to
// 1/(r+1)^s, rounding by largest remainder.
func zipfQuota(n int, s float64, total int) []int {
	w := make([]float64, n)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		sum += w[r]
	}
	quota := make([]int, n)
	frac := make([]int, n)
	left := total
	for r := range w {
		exact := float64(total) * w[r] / sum
		quota[r] = int(exact)
		left -= quota[r]
		frac[r] = r
	}
	slices.SortStableFunc(frac, func(a, b int) int {
		fa := float64(total)*w[a]/sum - float64(quota[a])
		fb := float64(total)*w[b]/sum - float64(quota[b])
		return cmp.Compare(fb, fa)
	})
	for _, r := range frac[:left] {
		quota[r]++
	}
	return quota
}

// computeRefs enumerates every key's complete answer on the harness's
// own graph copy, one goroutine per CPU.
func computeRefs(w *workload, keys []refKey) error {
	refs := make([]*reference, len(keys))
	errs := make([]error, len(keys))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(keys) {
					return
				}
				key := keys[k]
				g := w.states[stateKey{key.graph, key.state}]
				sols, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1, MinLeft: key.minL, MinRight: key.minR})
				refs[k], errs[k] = newReference(sols), err
			}
		}()
	}
	wg.Wait()
	for k, key := range keys {
		if errs[k] != nil {
			return fmt.Errorf("reference %+v: %w", key, errs[k])
		}
		w.refs[key] = refs[k]
	}
	return nil
}

// writeProbe alternately deletes and re-inserts one batch of present
// edges, leaving the graph as it found it.
func writeProbe(graph string, g *kbiplex.Graph, batch [][2]int32, writes int) []op {
	ops := make([]op, writes)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = op{kind: opWrite, graph: graph, edits: edgeOps("delete", batch), edges: g.NumEdges() - len(batch)}
		} else {
			ops[i] = op{kind: opWrite, graph: graph, edits: edgeOps("insert", batch), edges: g.NumEdges()}
		}
	}
	return ops
}

func allEdges(g *kbiplex.Graph) [][2]int32 {
	var es [][2]int32
	g.Edges(func(v, u int32) bool {
		es = append(es, [2]int32{v, u})
		return true
	})
	return es
}

// pickEdges draws n distinct edges from es.
func pickEdges(rng *rand.Rand, es [][2]int32, n int) [][2]int32 {
	out := make([][2]int32, 0, n)
	seen := map[[2]int32]bool{}
	for _, i := range rng.Perm(len(es)) {
		if len(out) == n {
			break
		}
		if !seen[es[i]] {
			seen[es[i]] = true
			out = append(out, es[i])
		}
	}
	return out
}

func withoutEdges(g *kbiplex.Graph, drop [][2]int32) *kbiplex.Graph {
	gone := map[[2]int32]bool{}
	for _, e := range drop {
		gone[e] = true
	}
	var b kbiplex.Builder
	b.SetSize(g.NumLeft(), g.NumRight())
	g.Edges(func(v, u int32) bool {
		if !gone[[2]int32{v, u}] {
			b.AddEdge(v, u)
		}
		return true
	})
	return b.Build()
}

func edgeOps(kind string, es [][2]int32) []client.EdgeOp {
	ops := make([]client.EdgeOp, len(es))
	for i, e := range es {
		ops[i] = client.EdgeOp{Op: kind, L: e[0], R: e[1]}
	}
	return ops
}
