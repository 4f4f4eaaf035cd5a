package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcrowd/internal/wal"
)

// reqHeader carries the benchmark's request id from the client-side
// transport wrapper to the server-side handler wrapper. Only the
// benchmark reads it; the platform ignores unknown headers.
const reqHeader = "X-Perfbench-Req"

// span is one timed interval at a layer boundary. Spans of one SDK call
// share Req; Parent names the layer that caused the span.
type span struct {
	Name   string
	Req    uint64
	Parent string
	Start  int64 // ns since the tracer started
	End    int64
	Code   int   // HTTP status, handler spans only
	Bytes  int64 // response body bytes (transport) or bytes written (wal)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one traced pass and writes them out
// when the pass ends. A nil *tracer disables every hook.
type tracer struct {
	t0      time.Time
	nextReq atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type reqTag struct {
	id uint64
	op string
}

type reqKey struct{}

// call runs one SDK call as span "sdk.<op>" and tags the HTTP requests it
// makes with a fresh request id.
func (t *tracer) call(ctx context.Context, op string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	id := t.nextReq.Add(1)
	ctx = context.WithValue(ctx, reqKey{}, reqTag{id: id, op: op})
	start := t.now()
	err := fn(ctx)
	t.add(span{Name: "sdk." + op, Req: id, Start: start, End: t.now()})
	return err
}

// transport wraps the SDK's RoundTripper. Its span covers the wait for
// response headers plus the time spent inside response-body reads (the
// SDK decodes while it reads, so the span's end is start + that busy
// time, not a wall-clock instant).
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (rt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tag, _ := req.Context().Value(reqKey{}).(reqTag)
	r2 := req.Clone(req.Context())
	r2.Header.Set(reqHeader, strconv.FormatUint(tag.id, 10))
	start := rt.t.now()
	resp, err := rt.base.RoundTrip(r2)
	hdr := rt.t.now() - start
	if err != nil {
		rt.t.add(span{Name: "http.rt", Req: tag.id, Parent: "sdk." + tag.op, Start: start, End: start + hdr})
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, t: rt.t, tag: tag, start: start, busy: hdr}
	return resp, nil
}

type timedBody struct {
	rc     io.ReadCloser
	t      *tracer
	tag    reqTag
	start  int64
	busy   int64
	bytes  int64
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	s := time.Now()
	n, err := b.rc.Read(p)
	b.busy += int64(time.Since(s))
	b.bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.t.add(span{Name: "http.rt", Req: b.tag.id, Parent: "sdk." + b.tag.op, Start: b.start, End: b.start + b.busy, Bytes: b.bytes})
	}
	return b.rc.Close()
}

// handler wraps the platform's http.Handler with a span per request.
type handler struct {
	h http.Handler
	t *tracer
}

func (th *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := th.t.now()
	th.h.ServeHTTP(sw, r)
	th.t.add(span{Name: "handler." + routeKind(r.URL.Path), Req: id, Parent: "http.rt", Start: start, End: th.t.now(), Code: sw.code})
}

// routeKind names the /v1 route family a path belongs to.
func routeKind(path string) string {
	for _, k := range []string{"answers", "tasks", "estimates"} {
		if strings.HasSuffix(path, "/"+k) {
			return k
		}
	}
	return "other"
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// walFS wraps the WAL filesystem seam so every segment write and fsync is
// a span.
type walFS struct {
	wal.FS
	t *tracer
}

func (f walFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &walFile{File: file, t: f.t}, nil
}

type walFile struct {
	wal.File
	t *tracer
}

func (f *walFile) Write(p []byte) (int, error) {
	s := f.t.now()
	n, err := f.File.Write(p)
	f.t.add(span{Name: "wal.write", Start: s, End: f.t.now(), Bytes: int64(n)})
	return n, err
}

func (f *walFile) Sync() error {
	s := f.t.now()
	err := f.File.Sync()
	f.t.add(span{Name: "wal.sync", Start: s, End: f.t.now()})
	return err
}

// writeSpans writes spans as CSV (name,req,parent,start_ns,end_ns,code,bytes).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,req,parent,start_ns,end_ns,code,bytes")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d\n", s.Name, s.Req, s.Parent, s.Start, s.End, s.Code, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callLayers splits each traced SDK call of one op into its layers: SDK
// self time (call minus transport), transport self time (transport minus
// handler) and handler time, in µs, plus round trips per call and
// response bytes per round trip.
type callLayers struct {
	SDK, Transport, Handler []float64
	RoundTrips, Calls       int
	Bytes                   []float64
}

func layersByOp(spans []span) map[string]*callLayers {
	type acc struct {
		op                    string
		call, rt, handler     time.Duration
		haveCall, haveHandler bool
		trips                 int
		bytes                 int64
	}
	byReq := make(map[uint64]*acc)
	get := func(id uint64) *acc {
		a := byReq[id]
		if a == nil {
			a = &acc{}
			byReq[id] = a
		}
		return a
	}
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		a := get(s.Req)
		switch {
		case strings.HasPrefix(s.Name, "sdk."):
			a.op, a.call, a.haveCall = strings.TrimPrefix(s.Name, "sdk."), s.dur(), true
		case s.Name == "http.rt":
			a.rt += s.dur()
			a.trips++
			a.bytes += s.Bytes
		case strings.HasPrefix(s.Name, "handler."):
			a.handler += s.dur()
			a.haveHandler = true
		}
	}
	out := make(map[string]*callLayers)
	ids := make([]uint64, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := byReq[id]
		if !a.haveCall || !a.haveHandler {
			continue
		}
		cl := out[a.op]
		if cl == nil {
			cl = &callLayers{}
			out[a.op] = cl
		}
		cl.SDK = append(cl.SDK, us(a.call-a.rt))
		cl.Transport = append(cl.Transport, us(a.rt-a.handler))
		cl.Handler = append(cl.Handler, us(a.handler))
		cl.RoundTrips += a.trips
		cl.Calls++
		if a.trips > 0 {
			cl.Bytes = append(cl.Bytes, float64(a.bytes)/float64(a.trips))
		}
	}
	return out
}
