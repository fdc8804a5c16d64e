// Command e2ebench is the repository's end-to-end benchmark. One run
// drives an in-process kbiplexd (internal/server) over loopback HTTP
// with the typed client, one closed-loop client at a time, replaying a
// seeded operation stream for one workload, and checks every answer
// against references computed before timing. See README.md.
//
//	e2ebench --workload full-enum --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1.
// --steady N repeats a workload in N child processes and prints each
// metric's median, quartiles and spread; --smoke is the self-test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	kbiplex "repro"
	"repro/internal/bicoreindex"
	"repro/internal/store"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	buildDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag, steady int
	var smoke bool
	flag.StringVar(&o.workload, "workload", "full-enum", "workload: full-enum, selective-mix or write-read")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs and operation stream derive from")
	flag.IntVar(&o.seconds, "seconds", 20, "minimum measured seconds (whole periods of the stream run)")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	flag.IntVar(&steady, "steady", 0, "repeat the workload in N child processes (seeds seed..seed+N-1) and print each metric's spread")
	flag.BoolVar(&smoke, "smoke", false, "self-test: every workload at two seeds, one-second runs, both modes")
	flag.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json)")
	flag.StringVar(&o.buildDir, "build-dir", "", "directory for run data and span files (default <root>/.bench_build)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.buildDir == "" {
		o.buildDir = filepath.Join(o.root, ".bench_build")
	}

	switch {
	case smoke:
		os.Exit(runSmoke(o))
	case steady > 0:
		os.Exit(runSteady(o, steady))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run and prints its report; the caller
// prints the result line.
func run(o options) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	t0 := time.Now()
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	prep := time.Since(t0)
	runDir := filepath.Join(o.buildDir, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	env := stampEnv(o.workload, o.seed, o.seconds, o.trace, runDir)
	stamp, _ := json.Marshal(env)
	fmt.Printf("env %s\n", stamp)
	fmt.Printf("prep %.2fs: %d graphs, %d references, %d-op period\n", prep.Seconds(), len(w.graphs), len(w.refs), len(w.period))

	// Input generation and references are done; start the measured
	// process state from a clean heap and a fresh RSS high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		fmt.Println("note: peak RSS could not be reset; it includes input generation")
	}
	if o.trace {
		return runTraced(o, w, runDir)
	}
	return runMeasured(o, w, runDir)
}

// setupReps boots the workload reps times, each in a fresh data
// directory, keeping the last instance; it returns every set-up time.
func setupReps(ctx context.Context, w *workload, runDir string, reps int, tr *tracer, p *phase) (*instance, []float64, error) {
	var in *instance
	var times []float64
	t0 := time.Now()
	defer func() { p.wall += time.Since(t0) }()
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			in.close()
			os.RemoveAll(in.dataDir)
		}
		var dt time.Duration
		var err error
		in, dt, err = setup(ctx, w, filepath.Join(runDir, fmt.Sprintf("setup%d", rep)), tr, p)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, dt.Seconds())
	}
	return in, times, nil
}

// runMeasured is the untraced run: repeated set-ups, the prefill, the
// measured phase and the write probe, reported as end-to-end metrics.
func runMeasured(o options, w *workload, runDir string) (*result, error) {
	ctx := context.Background()
	setupP := &phase{name: "setup"}
	in, setups, err := setupReps(ctx, w, runDir, w.setupReps, nil, setupP)
	if err != nil {
		return nil, err
	}
	defer in.close()
	d := newLoop(w, in, nil)
	prefill := &phase{name: "prefill"}
	d.runOps(ctx, prefill, w.prefill)

	runtime.GC()
	measure := &phase{name: "measure"}
	probe := &phase{name: "write-probe"}
	d.probe = probe
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	periods, elapsed := d.runPeriods(ctx, measure, 1, time.Duration(o.seconds)*time.Second)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	peakMB := procStatusKB("VmHWM") / 1024
	// Interleaved probe writes are not the measured phase's work.
	probe.wall = d.probeCost.wall
	elapsed -= d.probeCost.wall
	cpu -= d.probeCost.cpu
	mallocs := m1.Mallocs - m0.Mallocs - d.probeCost.mallocs

	if w.interleave == 0 {
		runtime.GC() // the measured phase's garbage is not the probe's
		d.runOps(ctx, probe, w.probe)
	}
	writes := measure.writes
	if len(writes) == 0 {
		writes = probe.writes
	}

	ops := float64(measure.attempted)
	res := &result{Metrics: map[string]metric{
		"setup_s":             {median(setups), "s"},
		"query_p50_ms":        {percentile(measure.reads, 50), "ms"},
		"query_p95_ms":        {percentile(measure.reads, 95), "ms"},
		"first_result_p50_ms": {percentile(measure.firsts, 50), "ms"},
		"write_p50_ms":        {percentile(writes, 50), "ms"},
		"write_p95_ms":        {percentile(writes, 95), "ms"},
		"solutions_per_s":     {float64(measure.solutions) / elapsed.Seconds(), "1/s"},
		"ops_per_s":           {ops / elapsed.Seconds(), "1/s"},
		"cpu_ms_per_op":       {ms(cpu) / ops, "ms"},
		"allocs_per_op":       {float64(mallocs) / ops, "count"},
		"peak_rss_mb":         {peakMB, "MB"},
	}}
	fmt.Printf("setup reps (s): %.4f\n", setups)
	fmt.Printf("measured %d periods (%d reads, %d writes) in %.2fs; write latencies from %s\n",
		periods, len(measure.reads), len(measure.writes), elapsed.Seconds(),
		map[bool]string{true: "the stream", false: "the write probe"}[len(measure.writes) > 0])
	finish(w, res, setupP, prefill, measure, probe)
	return res, nil
}

// runTraced is the traced run: one set-up, interleaved untraced and
// traced periods, the ledger replay and the layer probes, reported as
// per-layer metrics.
func runTraced(o options, w *workload, runDir string) (*result, error) {
	ctx := context.Background()
	tr := newTracer()
	third := time.Duration(o.seconds) * time.Second / 3

	setupP := &phase{name: "setup"}
	tr.on.Store(true)
	in, _, err := setupReps(ctx, w, runDir, 1, tr, setupP)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	defer in.close()
	d := newLoop(w, in, tr)
	prefill := &phase{name: "prefill"}
	d.runOps(ctx, prefill, w.prefill)

	// Untraced and traced periods alternate until two thirds of the run
	// have passed, so both halves see the same warm state; the difference
	// in their operation wall time is the tracing overhead.
	runtime.GC()
	untraced := &phase{name: "untraced"}
	traced := &phase{name: "traced"}
	probe := &phase{name: "write-probe"}
	d.probe = probe
	s0, err := in.stats(ctx)
	if err != nil {
		return nil, err
	}
	var gcCycles uint32
	var gcPause uint64
	var tracedOps [][2]int64 // operation id ranges of the traced periods
	periods := 0
	t0 := time.Now()
	for k := 0; k%2 == 1 || time.Since(t0) < 2*third; k++ {
		if k%2 == 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d.runPeriods(ctx, untraced, 1, 0)
			runtime.ReadMemStats(&m1)
			gcCycles += m1.NumGC - m0.NumGC
			gcPause += m1.PauseTotalNs - m0.PauseTotalNs
			continue
		}
		tr.on.Store(true)
		d.sampleJournal = true
		lo := tr.ids.Load()
		d.runPeriods(ctx, traced, 1, 0)
		tracedOps = append(tracedOps, [2]int64{lo, tr.ids.Load()})
		tr.on.Store(false)
		d.sampleJournal = false
		periods++
	}
	s1, err := in.stats(ctx)
	if err != nil {
		return nil, err
	}

	tr.on.Store(true)
	d.sampleJournal = true
	if w.interleave == 0 {
		d.runOps(ctx, probe, w.probe[:min(len(w.probe), tracedProbeWrites)])
	}
	ledgerP := &phase{name: "ledger"}
	l := newLedger(ctx, w, tr)
	defer l.close()
	lt := time.Now()
	l.replay(ctx, traced.executed, third)
	ledgerP.wall = time.Since(lt)
	ledgerP.attempted, ledgerP.failed = l.replayed, l.failed
	g := w.states[stateKey{w.graphs[0].name, 0}]
	buildMS := timeReps(3, func() { bicoreindex.Build(g) })
	loadMS, err := storeLoad(filepath.Join(runDir, "store-probe"), g)
	if err != nil {
		return nil, err
	}
	tr.on.Store(false)

	spans := tr.all()
	var passSpans []span
	for _, sp := range spans {
		for _, r := range tracedOps {
			if sp.Op > r[0] && sp.Op <= r[1] {
				passSpans = append(passSpans, sp)
				break
			}
		}
	}
	table := selfTimes(spans)
	rows := map[string]layerTime{}
	for _, r := range table {
		rows[r.Name] = r
	}
	handler := func(name string) metric {
		r := rows["server."+name]
		return metric{ratio(r.TotalMS, float64(r.Count)), "ms"}
	}
	var reqs, resultBytes float64
	var clientSelf float64
	for _, r := range selfTimes(passSpans) {
		switch {
		case strings.HasPrefix(r.Name, "server."):
			reqs += float64(r.Count)
		case strings.HasPrefix(r.Name, "client."):
			clientSelf += r.SelfMS
		}
	}
	for _, s := range passSpans {
		if s.Name == "server.results" {
			resultBytes += float64(s.Bytes)
		}
	}
	ops := float64(traced.attempted)
	replayed := float64(l.replayed)
	delaysUS := make([]float64, len(l.delays))
	for i, dl := range l.delays {
		delaysUS[i] = float64(dl.Nanoseconds()) / 1e3
	}
	gcOps := float64(untraced.attempted)
	allOps := float64(untraced.attempted + traced.attempted)
	var hitRatio, evicted, invalidated float64
	if s0.ResultCache != nil && s1.ResultCache != nil {
		// Both halves of the interleaved pass count here: the cache sees
		// the same stream either way.
		hits := float64(s1.ResultCache.Hits - s0.ResultCache.Hits)
		misses := float64(s1.ResultCache.Misses - s0.ResultCache.Misses)
		hitRatio = ratio(hits, hits+misses)
		evicted = ratio(float64(s1.ResultCache.Evicted-s0.ResultCache.Evicted), allOps)
		invalidated = ratio(float64(s1.ResultCache.Invalidated-s0.ResultCache.Invalidated), allOps)
	}

	res := &result{Metrics: map[string]metric{
		"core.ms_per_query":              {ratio(l.coreMS, float64(l.coreQueries)), "ms"},
		"core.allocs_per_query":          {ratio(float64(l.coreAllocs), float64(l.coreQueries)), "count"},
		"core.eas_calls_per_solution":    {ratio(float64(l.core.EASCalls), float64(l.core.Solutions)), "ratio"},
		"core.stored_per_local":          {ratio(float64(l.core.Stored), float64(l.core.LocalSolutions)), "ratio"},
		"core.delay_p99_us":              {percentile(delaysUS, 99), "us"},
		"exec.plan_ms":                   {mean(l.planMS), "ms"},
		"exec.reduced_edge_ratio":        {mean(l.reduced), "ratio"},
		"exec.runner_self_ms":            {ratio(rows["exec.run"].TotalMS-rows["core.enumerate"].TotalMS, replayed), "ms"},
		"bicoreindex.build_ms":           {buildMS, "ms"},
		"engine.self_ms":                 {ratio(rows["engine.enumerate"].SelfMS, replayed), "ms"},
		"engine.core_hit_ratio":          {l.coreHitRatio(), "ratio"},
		"jobs.self_ms":                   {ratio(rows["jobs.op"].SelfMS, replayed), "ms"},
		"jobs.queue_wait_ms":             {mean(l.queueWait), "ms"},
		"rescache.hit_ratio":             {hitRatio, "ratio"},
		"rescache.evicted":               {evicted, "count"},
		"rescache.invalidated":           {invalidated, "count"},
		"server.handler_ms.submit":       handler("submit"),
		"server.handler_ms.results":      handler("results"),
		"server.handler_ms.cancel":       handler("cancel"),
		"server.handler_ms.edges":        handler("edges"),
		"server.handler_ms.load":         handler("load"),
		"server.bytes_per_solution":      {ratio(resultBytes, float64(traced.solutions)), "B"},
		"server.requests_per_op":         {ratio(reqs, ops), "count"},
		"client.self_ms":                 {ratio(clientSelf, ops), "ms"},
		"mutate.journal_bytes_per_write": {mean(d.journalDeltas), "B"},
		"mutate.compactions":             {ratio(float64(s1.Mutations.Compactions-s0.Mutations.Compactions), allOps), "count"},
		"store.load_ms":                  {loadMS, "ms"},
		"store.resident_bytes":           {float64(s1.Store.ResidentBytes), "B"},
		"runtime.gc_cycles_per_op":       {ratio(float64(gcCycles), gcOps), "count"},
		"runtime.gc_pause_ms_per_op":     {ratio(float64(gcPause)/1e6, gcOps), "ms"},
		"trace.overhead_ms_per_op":       {ratio(ms(traced.opWall)-ms(untraced.opWall), ops), "ms"},
	}}

	spanFile := filepath.Join(o.buildDir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile, spans, table); err != nil {
		return nil, err
	}
	fmt.Printf("traced %d periods; replayed %d executed reads through jobs/engine/exec/core; %d spans in %s\n",
		periods, l.replayed, len(spans), spanFile)
	fmt.Println("self time by span (ms):")
	for _, r := range table {
		fmt.Printf("  %-22s n=%-7d total=%-12.3f self=%.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	finish(w, res, setupP, prefill, untraced, traced, probe, ledgerP)
	return res, nil
}

// finish fills the result's counts from the phases that carry the
// run's verdict and prints the per-phase report.
func finish(w *workload, res *result, phases ...*phase) {
	for _, p := range phases {
		fmt.Printf("phase %-11s attempted=%d succeeded=%d failed=%d wall=%.2fs\n",
			p.name, p.attempted, p.attempted-p.failed, p.failed, p.wall.Seconds())
		for _, f := range p.failures {
			fmt.Printf("  failure: %s\n", f)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	for _, c := range w.checks {
		fmt.Printf("check failed: %s\n", c)
	}
	res.Correct = res.Failed == 0 && len(w.checks) == 0
	fmt.Printf("error_rate %g\n", ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// tracedProbeWrites bounds the write probe in traced runs: the ledger
// needs the edges handler and journal sizes, not a latency tail.
const tracedProbeWrites = 20

// timeReps returns the median wall time of reps calls, in ms.
func timeReps(reps int, f func()) float64 {
	var ts []float64
	for range reps {
		t0 := time.Now()
		f()
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

// storeLoad times store.Catalog.Add of g as a persisted graph (the
// snapshot write and publication LoadGraph pays), median of three.
func storeLoad(dir string, g *kbiplex.Graph) (float64, error) {
	cat, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer cat.Close()
	var addErr error
	t := timeReps(3, func() {
		if _, err := cat.Add("probe", g, true); err != nil {
			addErr = err
		}
	})
	return t, addErr
}
