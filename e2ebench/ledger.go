package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	kbiplex "repro"
	"repro/internal/bicoreindex"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/jobs"
)

// ledger replays the reads the server executed through the layer stack
// below HTTP, nested through its public seams: a jobs.Manager whose
// Runner calls Engine.EnumerateRunner with a benchmark-owned
// exec.Runner wrapping exec.Sequential. After each run the runner
// repeats the traversal with core.Enumerate on the plan's view, so core
// time, allocations, counters and emit gaps are measured without the
// layers above.
type ledger struct {
	w   *workload
	tr  *tracer
	mgr *jobs.Manager
	// engines are the replicas of the server's engines: one per graph,
	// or one per write epoch on workloads with writes (each write swaps
	// in a fresh engine carrying the core index forward).
	engines map[engineKey]*kbiplex.Engine
	indexes map[stateKey]*bicoreindex.Index

	replayed    int
	failed      int
	core        core.Stats
	coreQueries int
	coreAllocs  uint64
	coreMS      float64
	delays      []time.Duration
	planMS      []float64
	reduced     []float64
	queueWait   []float64
}

type engineKey struct {
	graph string
	epoch uint64
}

func newLedger(ctx context.Context, w *workload, tr *tracer) *ledger {
	return &ledger{
		w: w, tr: tr,
		mgr:     jobs.NewManager(ctx, jobs.Config{}),
		engines: map[engineKey]*kbiplex.Engine{},
		indexes: map[stateKey]*bicoreindex.Index{},
		delays:  make([]time.Duration, 0, 1<<20),
	}
}

func (l *ledger) close() { l.mgr.Close(context.Background(), nil) }

func (l *ledger) engine(r executedRead) *kbiplex.Engine {
	k := engineKey{r.o.graph, r.epoch}
	if e := l.engines[k]; e != nil {
		return e
	}
	sk := stateKey{r.o.graph, r.o.state}
	g := l.w.states[sk]
	var e *kbiplex.Engine
	if r.epoch == 0 {
		e = kbiplex.NewEngine(g, kbiplex.EngineConfig{})
	} else {
		if l.indexes[sk] == nil {
			l.indexes[sk] = bicoreindex.Build(g)
		}
		e = kbiplex.NewEngineWithIndex(g, kbiplex.EngineConfig{}, l.indexes[sk])
	}
	l.engines[k] = e
	return e
}

// replay runs reads until they are exhausted or budget has passed.
func (l *ledger) replay(ctx context.Context, reads []executedRead, budget time.Duration) {
	t0 := time.Now()
	for _, r := range reads {
		if time.Since(t0) > budget {
			return
		}
		l.one(ctx, r)
	}
}

func (l *ledger) one(ctx context.Context, r executedRead) {
	eng := l.engine(r)
	g := l.w.states[stateKey{r.o.graph, r.o.state}]
	root := l.tr.begin(0, 0, "ledger.read")
	op := root.ID
	js := l.tr.begin(op, op, "jobs.op")
	run := func(ctx context.Context, q kbiplex.Query, emit func(kbiplex.Solution) bool) (kbiplex.Stats, error) {
		es := l.tr.begin(js.ID, op, "engine.enumerate")
		defer l.tr.end(es)
		return eng.EnumerateRunner(ctx, q.Options(), &tracedRunner{l: l, parent: es.ID, op: op, full: g.NumEdges()}, emit)
	}
	job, err := l.mgr.Submit(r.o.graph, r.q, run)
	var n int64
	if err == nil {
		for range job.Results(ctx, 0) {
			n++
		}
	}
	l.tr.end(js)
	l.replayed++
	if err != nil {
		l.failed++
		l.tr.end(root)
		return
	}
	snap := job.Snapshot()
	l.mgr.Remove(job.ID())
	if ref := l.w.refs[keyOf(r.o)]; snap.State != jobs.StateDone || ref == nil || n != ref.expect(r.q.MaxResults) {
		l.failed++
	}
	if !snap.Started.IsZero() {
		l.queueWait = append(l.queueWait, ms(snap.Started.Sub(snap.Created)))
	}

	// The planner without the engine's core cache.
	ps := l.tr.begin(op, op, "exec.plan")
	t0 := time.Now()
	_, err = exec.NewPlan(g, exec.Options{Algorithm: exec.ITraversal, KLeft: 1, KRight: 1,
		MinLeft: r.q.MinLeft, MinRight: r.q.MinRight, MaxResults: r.q.MaxResults})
	l.planMS = append(l.planMS, ms(time.Since(t0)))
	l.tr.end(ps)
	if err != nil {
		l.failed++
	}
	l.tr.end(root)
}

// tracedRunner is the benchmark's exec.Runner: it times exec.Sequential
// and then repeats the traversal alone on the plan's view.
type tracedRunner struct {
	l      *ledger
	parent int64
	op     int64
	full   int
}

func (t *tracedRunner) Run(p *exec.Plan, emit exec.EmitFunc) (exec.Stats, error) {
	l := t.l
	xs := l.tr.begin(t.parent, t.op, "exec.run")
	st, err := exec.Sequential{}.Run(p, emit)
	l.tr.end(xs)
	if t.full > 0 {
		l.reduced = append(l.reduced, float64(p.View.Run.NumEdges())/float64(t.full))
	}

	c := core.ITraversal(1)
	c.K, c.KLeft, c.KRight = 0, p.Opts.KLeft, p.Opts.KRight
	c.ThetaL, c.ThetaR = p.Opts.MinLeft, p.Opts.MinRight
	c.MaxResults = p.Opts.MaxResults
	c.Transpose = p.View.Transpose
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cs := l.tr.begin(t.parent, t.op, "core.enumerate")
	t0 := time.Now()
	last := t0
	cst, cerr := core.Enumerate(p.View.Run, c, func(kbiplex.Solution) bool {
		now := time.Now()
		l.delays = append(l.delays, now.Sub(last))
		last = now
		return true
	})
	l.coreMS += ms(time.Since(t0))
	l.tr.end(cs)
	runtime.ReadMemStats(&m1)
	l.coreAllocs += m1.Mallocs - m0.Mallocs
	l.coreQueries++
	l.core.Solutions += cst.Solutions
	l.core.Stored += cst.Stored
	l.core.EASCalls += cst.EASCalls
	l.core.LocalSolutions += cst.LocalSolutions
	l.core.Expansions += cst.Expansions
	if cerr == nil && cst.Solutions != st.Solutions {
		cerr = fmt.Errorf("core probe found %d solutions, runner %d", cst.Solutions, st.Solutions)
	}
	if cerr != nil {
		l.failed++
	}
	return st, err
}

// coreHitRatio is the replicas' (α,β)-core cache hit share.
func (l *ledger) coreHitRatio() float64 {
	var hits, all int64
	for _, e := range l.engines {
		st := e.Stats()
		hits += st.CoreHits
		all += st.CoreHits + st.CoreMisses
	}
	return ratio(float64(hits), float64(all))
}
