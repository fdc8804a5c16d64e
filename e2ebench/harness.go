package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	kbiplex "repro"
	"repro/client"
	"repro/internal/server"
)

// instance is one in-process kbiplexd served over loopback HTTP, and
// the typed client that drives it.
type instance struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	hc      *http.Client
	cl      *client.Client
	dataDir string
}

// start boots a server over dataDir with the workload's configuration.
// With a tracer, the tracing middleware wraps the server's handler and
// the client's transport stamps its spans onto requests.
func start(w *workload, dataDir string, tr *tracer) (*instance, error) {
	srv, err := server.New(server.Config{
		DataDir:           dataDir,
		ResultCacheBytes:  w.cacheBytes,
		JournalCompactOps: w.compactOps,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	if tr != nil {
		h = tr.middleware(srv)
		rt = tr.transport(rt)
	}
	in := &instance{
		srv:     srv,
		hs:      &http.Server{Handler: h},
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		hc:      &http.Client{Transport: rt},
		dataDir: dataDir,
	}
	in.cl = client.New(in.base, client.WithHTTPClient(in.hc))
	go func() {
		defer close(in.served)
		in.hs.Serve(ln)
	}()
	return in, nil
}

// close stops the HTTP server, waits for its accept loop to exit, and
// closes the catalog, job pool and journals.
func (in *instance) close() {
	in.srv.BeginShutdown()
	in.hs.Close()
	<-in.served
	in.hc.CloseIdleConnections()
	in.srv.Close()
}

// phase accumulates one phase's operations: counts, latencies in
// milliseconds, and the reads the server executed (result-cache
// misses), which the traced run replays through the in-process stack.
type phase struct {
	name              string
	attempted, failed int
	reads, writes     []float64
	firsts            []float64
	solutions         int64
	opWall            time.Duration
	wall              time.Duration
	executed          []executedRead
	failures          []string
}

type executedRead struct {
	o     op
	q     kbiplex.Query
	epoch uint64
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// closedLoop issues the operation stream through one client, closed loop:
// each operation starts after the previous one completed.
type closedLoop struct {
	w      *workload
	in     *instance
	tr     *tracer
	next   int // stream index of the next operation
	epochs map[string]uint64
	// sampleJournal, when set, samples the /stats journal size around
	// every write (traced passes only) into journalDeltas.
	sampleJournal bool
	journalDeltas []float64
	hashes        []uint64
	// probe receives the writes interleave runs between periods;
	// probeNext indexes the workload's probe sequence.
	probe     *phase
	probeNext int
	probeCost cost
}

func newLoop(w *workload, in *instance, tr *tracer) *closedLoop {
	return &closedLoop{w: w, in: in, tr: tr, epochs: map[string]uint64{}}
}

// runPeriods replays whole periods of the stream until at least minDur
// has passed (and at least minPeriods periods ran), returning the
// number of periods and the wall time.
func (d *closedLoop) runPeriods(ctx context.Context, p *phase, minPeriods int, minDur time.Duration) (int, time.Duration) {
	t0 := time.Now()
	periods := 0
	for periods < minPeriods || time.Since(t0) < minDur {
		for _, o := range d.w.period {
			d.do(ctx, p, o)
		}
		d.interleave(ctx)
		periods++
	}
	p.wall += time.Since(t0)
	return periods, time.Since(t0)
}

// runOps runs a fixed op list (prefill, write probe).
func (d *closedLoop) runOps(ctx context.Context, p *phase, ops []op) {
	t0 := time.Now()
	for _, o := range ops {
		d.do(ctx, p, o)
	}
	p.wall += time.Since(t0)
}

// interleave runs the workload's between-period probe writes into
// d.probe, adding their wall time, CPU time and allocations to
// d.probeCost so the measured phase can leave them out.
func (d *closedLoop) interleave(ctx context.Context) {
	if d.w.interleave == 0 || d.probe == nil {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	for range d.w.interleave {
		d.do(ctx, d.probe, d.w.probe[d.probeNext%len(d.w.probe)])
		d.probeNext++
	}
	d.probeCost.wall += time.Since(t0)
	d.probeCost.cpu += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	d.probeCost.mallocs += m1.Mallocs - m0.Mallocs
}

// cost is the resources one stretch of operations used.
type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
}

var opSpan = [...]string{opRead: "op.read", opWrite: "op.write"}

// do runs one operation as stream index d.next.
func (d *closedLoop) do(ctx context.Context, p *phase, o op) {
	i := d.next
	d.next++
	p.attempted++
	root := d.tr.begin(0, 0, opSpan[o.kind])
	t0 := time.Now()
	switch o.kind {
	case opRead:
		d.read(ctx, p, o, i, root.ID)
	case opWrite:
		d.write(ctx, p, o, root.ID)
	}
	p.opWall += time.Since(t0)
	d.tr.end(root)
}

func (d *closedLoop) read(ctx context.Context, p *phase, o op, i int, opID int64) {
	q := o.query(i)
	ref := d.w.refs[keyOf(o)]
	if ref == nil {
		p.fail("read %+v: no reference", keyOf(o))
		return
	}
	capped := ref.expect(q.MaxResults) < ref.count
	cl := d.in.cl

	start := time.Now()
	sctx, sp := d.tr.child(ctx, opID, "client.submit")
	job, info, err := cl.SubmitJobCached(sctx, o.graph, q, "")
	d.tr.end(sp)
	if err != nil {
		p.fail("submit %s %+v: %v", o.graph, q, err)
		return
	}
	var n int64
	var sum uint64
	var first time.Duration
	d.hashes = d.hashes[:0]
	rctx, sp := d.tr.child(ctx, opID, "client.results")
	for sol, err := range cl.Results(rctx, job.ID) {
		if err != nil {
			d.tr.end(sp)
			p.fail("results %s: %v", job.ID, err)
			return
		}
		if n == 0 {
			first = time.Since(start)
		}
		n++
		h := solutionHash(sol)
		sum += h
		if capped {
			d.hashes = append(d.hashes, h)
		}
	}
	lat := time.Since(start)
	d.tr.end(sp)
	cctx, sp := d.tr.child(ctx, opID, "client.cancel")
	err = cl.CancelJob(cctx, job.ID)
	d.tr.end(sp)
	if err != nil {
		p.fail("delete %s: %v", job.ID, err)
		return
	}

	if job.Epoch < d.epochs[o.graph] {
		p.fail("stale read: job %s at epoch %d after write epoch %d", job.ID, job.Epoch, d.epochs[o.graph])
		return
	}
	if capped {
		if n != int64(q.MaxResults) {
			p.fail("read %+v cap %d: %d solutions", keyOf(o), q.MaxResults, n)
			return
		}
		slices.Sort(d.hashes)
		for k, h := range d.hashes {
			if _, ok := ref.members[h]; !ok || k > 0 && d.hashes[k-1] == h {
				p.fail("read %+v cap %d: solution outside the reference or repeated", keyOf(o), q.MaxResults)
				return
			}
		}
	} else if n != ref.count || sum != ref.sum {
		p.fail("read %+v: %d solutions (hash %x), reference %d (hash %x)", keyOf(o), n, sum, ref.count, ref.sum)
		return
	}
	p.reads = append(p.reads, ms(lat))
	if n > 0 {
		p.firsts = append(p.firsts, ms(first))
	}
	p.solutions += n
	if info.Status != "hit" {
		p.executed = append(p.executed, executedRead{o: o, q: q, epoch: d.epochs[o.graph]})
	}
}

func (d *closedLoop) write(ctx context.Context, p *phase, o op, opID int64) {
	var before int64
	if d.sampleJournal {
		before = d.journalBytes(ctx)
	}
	start := time.Now()
	mctx, sp := d.tr.child(ctx, opID, "client.mutate")
	res, err := d.in.cl.MutateEdges(mctx, o.graph, o.edits)
	lat := time.Since(start)
	d.tr.end(sp)
	if err != nil {
		p.fail("mutate %s: %v", o.graph, err)
		return
	}
	if d.sampleJournal && !res.Compacted {
		d.journalDeltas = append(d.journalDeltas, float64(d.journalBytes(ctx)-before))
	}
	prev := d.epochs[o.graph]
	d.epochs[o.graph] = res.Epoch
	if res.Epoch <= prev || res.Applied != len(o.edits) || res.NumEdges != o.edges {
		p.fail("mutate %s: epoch %d→%d, applied %d of %d, %d edges (want %d)",
			o.graph, prev, res.Epoch, res.Applied, len(o.edits), res.NumEdges, o.edges)
		return
	}
	p.writes = append(p.writes, ms(lat))
}

// stats fetches the server's /stats document.
func (in *instance) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := in.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *closedLoop) journalBytes(ctx context.Context) int64 {
	st, err := d.in.stats(ctx)
	if err != nil {
		return 0
	}
	return st.Mutations.JournalBytes
}

// serverStats is the part of /stats the ledger reads.
type serverStats struct {
	Store struct {
		ResidentBytes int64 `json:"resident_bytes"`
	} `json:"store"`
	Mutations struct {
		Compactions  int64 `json:"compactions"`
		JournalBytes int64 `json:"journal_bytes"`
	} `json:"mutations"`
	ResultCache *struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Evicted     int64 `json:"evicted"`
		Invalidated int64 `json:"invalidated"`
	} `json:"result_cache"`
}

// setup boots a server in a fresh data directory, loads every graph
// through the client and warms it; it returns the instance and the
// time from server start until the graphs were loaded and warmed.
func setup(ctx context.Context, w *workload, dataDir string, tr *tracer, p *phase) (*instance, time.Duration, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	in, err := start(w, dataDir, tr)
	if err != nil {
		return nil, 0, err
	}
	for _, gs := range w.graphs {
		p.attempted++
		root := tr.begin(0, 0, "op.load")
		lctx, sp := tr.child(ctx, root.ID, "client.load")
		err := in.cl.LoadGraph(lctx, gs.name, w.states[stateKey{gs.name, 0}], gs.persist)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			in.close()
			return nil, 0, fmt.Errorf("loading %s: %w", gs.name, err)
		}
	}
	d := newLoop(w, in, tr)
	for _, gs := range w.graphs {
		if err := d.warm(ctx, p, gs.name); err != nil {
			in.close()
			return nil, 0, err
		}
	}
	return in, time.Since(t0), nil
}

// warm runs the workload's warm query once against graph, draining and
// deleting the job.
func (d *closedLoop) warm(ctx context.Context, p *phase, graph string) error {
	p.attempted++
	job, err := d.in.cl.SubmitJob(ctx, graph, d.w.warm)
	if err == nil {
		for _, e := range d.in.cl.Results(ctx, job.ID) {
			if e != nil {
				err = e
			}
		}
	}
	if err == nil {
		err = d.in.cl.CancelJob(ctx, job.ID)
	}
	if err != nil {
		p.failed++
		return fmt.Errorf("warming %s: %w", graph, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
