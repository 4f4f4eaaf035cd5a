// Command perfbench is tcrowd's served-path benchmark. It runs the
// platform in-process behind a real loopback HTTP listener, drives it with
// the official SDK on inputs generated from --seed, checks the outputs,
// and prints one JSON result line: the end-to-end metrics, or with
// --trace 1 the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload interface {
	// setup builds and serves the platform; its CPU time is setup_s.
	setup(dir string, t *tracer) (*env, error)
	// run drives load for about seconds and records the outcome.
	run(e *env, seconds float64, ck *checks) (*outcome, error)
}

var workloads = map[string]func(seed int64) workload{
	"crowd-loop": func(s int64) workload { return &crowdLoop{seed: s} },
	"ingest":     func(s int64) workload { return &ingest{seed: s} },
}

// A pass sets up setupWarm+setupReps times and reports the median CPU
// time of the last setupReps. The first set-ups of a process run several
// times slower than the rest while the runtime and the filesystem warm
// up; a median over a window that straddles them jumps between the two
// levels. CPU time rather than wall time, because on a virtual machine
// that shares its host, a set-up's wall time doubled for minutes at a time
// (waiting to be scheduled after each fsync and loopback round trip)
// while its CPU time moved far less. The wall times go to the metadata.
const (
	setupWarm = 10
	setupReps = 41
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "crowd-loop or ingest")
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Float64("seconds", 10, "timed window per pass")
		traced  = flag.Int("trace", 0, "1 = also run a traced pass and print per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the WAL and the span dump")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wl := mk(seed)

	base, err := runPass(wl, dir, nil, seconds)
	if err != nil {
		return err
	}
	e2e, err := endToEnd(base)
	if err != nil {
		return err
	}
	meta := map[string]any{
		"workload":         name,
		"seed":             seed,
		"seconds":          seconds,
		"trace":            traced,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"fsync":            walPolicy.String(),
		"wal_fs":           fsType(dir),
		"setup_warm":       setupWarm,
		"setup_cpu_s_all":  base.setups,
		"setup_wall_s_all": base.setupWalls,
		"samples": map[string]int{
			"submit": len(base.o.submit), "tasks": len(base.o.tasks), "fresh": len(base.o.fresh),
		},
		"scored_projects":  len(base.o.q.mnad),
		"refresh_deferred": base.o.deferred,
	}
	res := result{Correct: len(base.ck.fails) == 0, Attempted: base.o.cnt.attempted, Failed: base.o.cnt.failed, Metrics: e2e}
	fails := base.ck.fails

	if traced {
		tr := newTracer()
		tp, err := runPass(wl, dir, tr, seconds)
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.csv", name, seed))
		if err := writeSpans(spanPath, spans); err != nil {
			return err
		}
		t0 := time.Now()
		rs := replay(tp.o.streams, seed)
		meta["replay_s"] = time.Since(t0).Seconds()
		meta["spans"] = map[string]any{"file": spanPath, "count": len(spans)}
		layers, byCode, err := perLayer(base, tp, e2e, spans, rs)
		if err != nil {
			return err
		}
		meta["non2xx_by_code"] = byCode
		fails = append(fails, tp.ck.fails...)
		res = result{
			Correct:   len(fails) == 0,
			Attempted: base.o.cnt.attempted + tp.o.cnt.attempted,
			Failed:    base.o.cnt.failed + tp.o.cnt.failed,
			Metrics:   layers,
		}
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// pass is one set-up plus timed window.
type pass struct {
	// setups and setupWalls are the CPU and wall seconds of the timed
	// set-ups, after the warm-up ones.
	setups, setupWalls []float64
	o                  *outcome
	ck                 *checks
}

// runPass sets up setupWarm+setupReps times on an empty WAL directory,
// tearing down all but the last, then runs the workload on the last.
func runPass(wl workload, dir string, t *tracer, seconds float64) (*pass, error) {
	ps := &pass{ck: &checks{}}
	var e *env
	for i := 0; i < setupWarm+setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		if e, err = wl.setup(dir, t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i >= setupWarm {
			ps.setups = append(ps.setups, (cpuTime() - cpu0).Seconds())
			ps.setupWalls = append(ps.setupWalls, time.Since(t0).Seconds())
		}
	}
	if t != nil {
		t.mu.Lock()
		t.spans = t.spans[:0]
		t.mu.Unlock()
	}
	o, err := wl.run(e, seconds, ps.ck)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ps.o = o
	return ps, nil
}

// endToEnd computes the bounded, user-visible metrics of an untraced pass.
func endToEnd(ps *pass) (map[string]metric, error) {
	o := ps.o
	if o.answers == 0 {
		return nil, errors.New("no answers acknowledged")
	}
	return map[string]metric{
		"cpu_us_per_answer": {us(o.cpu) / float64(o.answers), "us"},
		"error_rate":        {o.q.errorRate(), "fraction"},
		"mnad":              {mean(o.q.mnad), "ratio"},
		"setup_s":           {median(ps.setups), "s"},
	}, nil
}

// answersPerS is acknowledged answers over the submitting phases' wall
// time.
func answersPerS(o *outcome) float64 { return float64(o.answers) / o.window.Seconds() }

// optionalPct is p of xs, 0 when the workload has no such operation, and
// an error when it has some but too few to support p.
func optionalPct(xs []float64, p float64, what string) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	v, err := percentile(xs, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return v, nil
}

// perLayer assembles the traced run's metrics from the traced pass (spans,
// counters, samples, replay) and the untraced pass it is compared with.
func perLayer(base, tp *pass, e2e map[string]metric, spans []span, rs replayStats) (map[string]metric, map[int]int, error) {
	o := tp.o
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Throughput and latencies of the untraced pass.
	put("e2e.answers_per_s", answersPerS(base.o), "answers/s")
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"submit", base.o.submit}, {"tasks", base.o.tasks}, {"fresh", base.o.fresh}} {
		for _, q := range []struct {
			tag string
			p   float64
		}{{"p50", 0.5}, {"p95", 0.95}} {
			v, err := optionalPct(l.xs, q.p, l.name)
			if err != nil {
				return nil, nil, err
			}
			put("e2e."+l.name+"_"+q.tag+"_ms", v, "ms")
		}
	}

	layers := layersByOp(spans)
	get := func(op string) *callLayers {
		if cl := layers[op]; cl != nil {
			return cl
		}
		return &callLayers{}
	}
	for _, op := range []string{"submit", "tasks", "page"} {
		put("client.sdk_us."+op, median(get(op).SDK), "us")
	}
	for _, op := range []string{"submit", "page"} {
		put("http.transport_us."+op, median(get(op).Transport), "us")
	}
	// Single-request calls only: a final read's paged walk makes several
	// requests by design.
	trips, calls := 0, 0
	for _, op := range []string{"submit", "tasks", "page"} {
		trips += get(op).RoundTrips
		calls += get(op).Calls
	}
	put("client.attempts_per_call", float64(trips)/float64(max(calls, 1)), "count")
	put("client.resp_bytes.page", median(get("page").Bytes), "bytes")

	byCode := map[int]int{}
	var walWrite, walSync []float64
	walBytes := int64(0)
	for _, s := range spans {
		switch s.Name {
		case "wal.write":
			walWrite = append(walWrite, us(s.dur()))
			walBytes += s.Bytes
		case "wal.sync":
			walSync = append(walSync, us(s.dur()))
		case "handler.answers", "handler.tasks", "handler.estimates", "handler.other":
			if s.Code >= 300 {
				byCode[s.Code]++
			}
		}
	}
	non2xx := 0
	for _, n := range byCode {
		non2xx += n
	}
	// Estimates handler time is taken from plain pages: the first page of
	// a final read also waits for its refresh.
	put("platform.handler_us.answers", median(get("submit").Handler), "us")
	put("platform.handler_us.tasks", median(get("tasks").Handler), "us")
	put("platform.handler_us.estimates", median(get("page").Handler), "us")
	put("platform.non2xx", float64(non2xx), "count")
	put("platform.refresh_deferred", float64(o.deferred), "count")

	put("platform.generations", float64(len(o.events)), "count")
	deltas := make([]float64, len(o.events))
	for i, ev := range o.events {
		deltas[i] = float64(ev.delta)
	}
	put("platform.answers_per_generation", mean(deltas), "answers")
	lag, err := percentile(o.samp.lag, 0.95)
	if err != nil {
		return nil, nil, fmt.Errorf("lag samples: %w", err)
	}
	put("platform.lag_answers_p95", lag, "answers")

	put("wal.writes", float64(len(walWrite)), "count")
	put("wal.write_us", median(walWrite), "us")
	put("wal.syncs", float64(len(walSync)), "count")
	put("wal.sync_us", median(walSync), "us")
	put("wal.bytes_per_answer", float64(walBytes)/float64(max(o.answers, 1)), "bytes")

	sh := o.shard
	put("shard.jobs", float64(sh.jobs), "count")
	put("shard.busy_frac", sh.busy.Seconds()/(o.wall.Seconds()*float64(o.workers)), "fraction")
	put("shard.job_ms", ms(sh.busy)/float64(max(sh.jobs, 1)), "ms")
	put("shard.coalesced_ratio", float64(sh.coalesced)/float64(max(sh.enqueued+sh.coalesced, 1)), "fraction")
	put("shard.rejected", float64(sh.rejected), "count")
	put("shard.depth_max", float64(o.samp.depthMax), "count")

	put("core.infer_cold_ms", median(rs.coldMs), "ms")
	put("core.ingest_us_per_answer", us(rs.ingestTime)/float64(max(rs.ingested, 1)), "us")
	put("core.refresh_ms", median(rs.refreshMs), "ms")
	put("core.em_iters", mean(rs.emIters), "count")
	put("core.estimates_ms", median(rs.estimatesMs), "ms")
	put("assign.refresh_ms", median(rs.assignRefreshMs), "ms")
	put("assign.select_us", median(rs.selectUs), "us")

	traced, err := endToEnd(tp)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		put("trace.overhead_frac."+k, traced[k].Value/e2e[k].Value, "ratio")
	}
	put("trace.overhead_frac.answers_per_s", answersPerS(o)/answersPerS(base.o), "ratio")
	put("trace.shard_accounted_frac", rs.shardWork.Seconds()/max(o.replayBusy.Seconds(), 1e-9), "fraction")
	sub := get("submit")
	put("trace.submit_accounted_frac", (median(sub.SDK)+median(sub.Transport)+median(sub.Handler))/1e3/m["e2e.submit_p50_ms"].Value, "fraction")
	return m, byCode, nil
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Dir(dir), &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
