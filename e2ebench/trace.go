package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op, the id of the operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response body size of a server span.
	Bytes int64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory. All methods are no-ops on a nil tracer
// and record nothing while the tracer is off, so the untraced paths
// share the traced code.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; a root span (parent 0, op 0) starts a new
// operation whose id is its own.
func (t *tracer) begin(parent, op int64, name string) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	id := t.ids.Add(1)
	if op == 0 {
		op = id
	}
	return span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) {
	if t == nil || s.ID == 0 {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark returned from.
func (t *tracer) since(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[from:])
}

func (t *tracer) all() []span { return t.since(0) }

// child opens a client span under the operation op and returns a
// context that carries it to the server through the transport.
func (t *tracer) child(ctx context.Context, op int64, name string) (context.Context, span) {
	s := t.begin(op, op, name)
	if s.ID == 0 {
		return ctx, s
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

type spanKey struct{}

const (
	headerOp   = "X-E2ebench-Op"
	headerSpan = "X-E2ebench-Span"
)

// transport stamps the calling span onto each request so the server
// middleware can parent its handler span.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		if s, ok := r.Context().Value(spanKey{}).(span); ok {
			r = r.Clone(r.Context())
			r.Header.Set(headerOp, strconv.FormatInt(s.Op, 10))
			r.Header.Set(headerSpan, strconv.FormatInt(s.ID, 10))
		}
		return base.RoundTrip(r)
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// middleware wraps (*server.Server).ServeHTTP, recording one span per
// request that carries a client span.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		s := t.begin(parent, op, "server."+route(r))
		if s.ID == 0 || op == 0 {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.Bytes = cw.n
		t.end(s)
	})
}

// route names the handler a request reaches.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/jobs"):
		return "submit"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/results"):
		return "results"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/jobs/"):
		return "cancel"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/edges"):
		return "edges"
	case r.Method == http.MethodPost && (p == "/v1/graphs" || p == "/graphs"):
		return "load"
	}
	return "other"
}

// countingWriter counts response bytes; Unwrap keeps the server's
// http.ResponseController flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes derives each span name's total and self time: a span's self
// time is its duration minus the part of it its children cover.
func selfTimes(spans []span) []layerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.TotalMS += float64(dur) / 1e6
		row.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b layerTime) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// covered is the length of the union of ivs clipped to s.
func covered(s span, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := s.Start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], s.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes the spans and the self-time table as one JSON file.
func writeSpans(path string, spans []span, table []layerTime) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		SelfTime []layerTime `json:"self_time"`
		Spans    []span      `json:"spans"`
	}{table, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
