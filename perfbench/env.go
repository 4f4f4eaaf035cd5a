package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"tcrowd/client"
	"tcrowd/internal/platform"
	"tcrowd/internal/wal"
)

// env is one platform served over a real loopback listener, with the SDK
// client the load generators share. With a tracer, the SDK transport, the
// server handler and the WAL filesystem are wrapped.
type env struct {
	p      *platform.Platform
	srv    *http.Server
	served chan error
	tr     *http.Transport
	c      *client.Client
	trace  *tracer
}

// walPolicy is the WAL fsync policy of every workload: group commit on
// the default 100ms flush interval. With fsync on every acknowledged batch
// (the server default), submit latency on a shared virtual disk followed
// the disk's load from other tenants: p95 swung 2-4x between runs of the
// same code. Group commit keeps the disk off the acknowledgement path
// while the WAL still logs every answer and fsyncs it within one
// interval.
const walPolicy = wal.SyncInterval

func walOptions(dir string, t *tracer) *platform.WALOptions {
	o := &platform.WALOptions{Dir: dir, Policy: walPolicy}
	if t != nil {
		o.FS = walFS{FS: wal.OSFS(), t: t}
	}
	return o
}

// startEnv builds a fresh platform logging to dir and serves it on
// 127.0.0.1.
func startEnv(dir string, seed int64, t *tracer) (*env, error) {
	p := platform.NewWithOptions(seed, platform.Options{WAL: walOptions(dir, t)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, err
	}
	var h http.Handler = platform.NewServer(p)
	if t != nil {
		h = &handler{h: h, t: t}
	}
	e := &env{p: p, srv: &http.Server{Handler: h}, served: make(chan error, 1), trace: t}
	go func() { e.served <- e.srv.Serve(ln) }()
	// Two load goroutines, two connections.
	e.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = e.tr
	if t != nil {
		rt = &transport{base: e.tr, t: t}
	}
	e.c = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute}))
	return e, nil
}

// close stops the listener, waits for the serve loop to return, then
// drains and closes the platform (flushing every WAL).
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	e.tr.CloseIdleConnections()
	if perr := e.p.Close(); perr != nil && err == nil {
		err = perr
	}
	return err
}
