package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcrowd/api"
	"tcrowd/internal/platform"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// crowdLoop is the paper's online assignment loop (Sec. 6.3) over the
// wire: two closed-loop worker clients, each owning half the crowd, ask
// for 6 tasks, answer them and submit the batch, until the project holds
// 3 answers per cell; then one strongly consistent read is checked.
// Loops over fresh projects repeat until the run's time is spent, and at
// least loopScored times.
type crowdLoop struct {
	seed int64
}

const (
	loopRows, loopCols = 50, 6
	loopPerCell        = 3
	loopTasks          = 6
	// loopScored is how many loops, the first ones, the quality metrics
	// score: every run completes them, so a faster server scores the same
	// tables, not more of them.
	loopScored = 20
)

func (w *crowdLoop) project(loop int) (string, *simulate.Dataset) {
	return fmt.Sprintf("loop-%d", loop), dataset(subSeed(w.seed, loop), loopRows, loopCols, 60)
}

func (w *crowdLoop) create(ctx context.Context, e *env, loop int) error {
	id, ds := w.project(loop)
	return e.c.CreateProject(ctx, api.CreateProjectRequest{
		ID:               id,
		Schema:           apiSchema(ds.Table.Schema),
		Rows:             loopRows,
		TCrowdAssignment: true,
		Reputation:       true,
	})
}

func (w *crowdLoop) setup(dir string, t *tracer) (*env, error) {
	e, err := startEnv(dir, w.seed, t)
	if err != nil {
		return nil, err
	}
	if err := w.create(context.Background(), e, 0); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// taskReq is one recorded Tasks call for the assign replay: who asked,
// for how many, with how many answers acknowledged at the time.
type taskReq struct {
	worker tabular.WorkerID
	k, pos int
}

func (w *crowdLoop) run(e *env, seconds float64, ck *checks) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome(e.p)
	start := time.Now()
	for loop := 0; loop < loopScored || time.Since(start).Seconds() < seconds; loop++ {
		id, ds := w.project(loop)
		if loop > 0 {
			if err := w.create(ctx, e, loop); err != nil {
				return nil, err
			}
		}
		wl, err := startWatch(e.p, id)
		if err != nil {
			return nil, err
		}
		o.watching.Store(&[]string{id})
		busy0 := shardTotals(e.p).busy

		target := int64(ds.Table.NumCells() * loopPerCell)
		var acked atomic.Int64
		type clientRec struct {
			cnt           counter
			tasks, submit []float64
			acks          []ack
			batches       [][]api.Answer
			reqs          []taskReq
			workMs        map[answerKey]int64
			deferred      int
		}
		recs := make([]clientRec, 2)
		t0, cpu0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		for g := range recs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := &recs[g]
				r.workMs = make(map[answerKey]int64)
				crowd := simulate.NewCrowd(ds, subSeed(w.seed, loop, g))
				var mine []*simulate.Worker
				for i := range ds.Workers {
					if i%2 == g {
						mine = append(mine, &ds.Workers[i])
					}
				}
				order := stats.NewRNG(subSeed(w.seed, loop, g, 1)).Perm(len(mine))
				idle := 0
				for n := 0; acked.Load() < target; n++ {
					if r.cnt.failed > 20 || idle > 2*len(mine) {
						ck.failf("%s client %d: stalled (%d failed calls, %d empty task lists in a row)", id, g, r.cnt.failed, idle)
						return
					}
					wk := mine[order[n%len(order)]]
					var tasks []api.Task
					r.reqs = append(r.reqs, taskReq{worker: wk.ID, k: loopTasks, pos: int(acked.Load())})
					t := time.Now()
					err := e.trace.call(ctx, "tasks", func(ctx context.Context) (err error) {
						tasks, err = e.c.Tasks(ctx, id, string(wk.ID), loopTasks)
						return err
					})
					r.cnt.add(err)
					if err != nil {
						continue
					}
					r.tasks = append(r.tasks, ms(time.Since(t)))
					if len(tasks) == 0 {
						idle++
						continue
					}
					idle = 0
					batch := make([]api.Answer, 0, len(tasks))
					for _, tk := range tasks {
						j := colIndex(ds.Table, tk.Column)
						a, workMs := crowd.AnswerMeta(wk, tabular.Cell{Row: tk.Row, Col: j})
						r.workMs[answerKey{wk.ID, tk.Row, j}] = workMs
						batch = append(batch, apiAnswer(ds.Table.Schema, a, workMs))
					}
					var resp *api.SubmitAnswersResponse
					t = time.Now()
					err = e.trace.call(ctx, "submit", func(ctx context.Context) (err error) {
						resp, err = e.c.SubmitAnswers(ctx, id, batch)
						return err
					})
					r.cnt.add(err)
					if err != nil {
						continue
					}
					at := time.Now()
					r.submit = append(r.submit, ms(at.Sub(t)))
					acked.Add(int64(len(batch)))
					st, _ := e.p.Stats(id)
					r.acks = append(r.acks, ack{pos: st.Answers, at: at})
					r.batches = append(r.batches, batch)
					if resp.Refresh == api.RefreshDeferred {
						r.deferred++
					}
				}
			}(g)
		}
		wg.Wait()
		window, cpu := time.Since(t0), cpuTime()-cpu0

		res, err := o.freshRead(ctx, e, id, ck)
		events := wl.stop(id, ck)
		o.events = append(o.events, events...)
		var batches [][]api.Answer
		var submit []float64
		var reqs []taskReq
		workMs := make(map[answerKey]int64)
		for g := range recs {
			r := &recs[g]
			o.cnt.attempted += r.cnt.attempted
			o.cnt.failed += r.cnt.failed
			o.tasks = append(o.tasks, r.tasks...)
			submit = append(submit, r.submit...)
			o.fresh = append(o.fresh, freshMs(r.acks, events)...)
			o.deferred += r.deferred
			batches = append(batches, r.batches...)
			reqs = append(reqs, r.reqs...)
			for k, v := range r.workMs {
				workMs[k] = v
			}
		}
		o.record(int(acked.Load()), window, cpu, submit)
		if err == nil {
			if rep, ok := checkRead(ck, id, ds, res, int(acked.Load()), batches); ok && loop < loopScored {
				o.q.add(rep)
			}
		}
		if o.keepsStreams(e) {
			st, err := capture(e.p, id)
			if err != nil {
				return nil, err
			}
			st.cut(events)
			st.reputation, st.assign, st.reqs, st.workMs = true, true, reqs, workMs
			o.streams = append(o.streams, st)
			o.replayBusy += shardTotals(e.p).busy - busy0
		}
		o.watching.Store(&[]string{})
		if err := e.c.DeleteProject(ctx, id); err != nil {
			return nil, fmt.Errorf("delete %s: %w", id, err)
		}
	}
	return o.finish(e.p), nil
}

func colIndex(tbl *tabular.Table, name string) int {
	for j, c := range tbl.Schema.Columns {
		if c.Name == name {
			return j
		}
	}
	return -1
}

// stream is one project's recorded answer stream, cut at the generations
// the platform published, for the core and assign replay.
type stream struct {
	tbl        *tabular.Table
	answers    []tabular.Answer
	bounds     []int
	reputation bool
	assign     bool
	reqs       []taskReq
	workMs     map[answerKey]int64
}

// capture copies project id's answer log in server order. The Stats call
// takes the platform lock every append held, so the copy sees them all.
func capture(p *platform.Platform, id string) (*stream, error) {
	if _, err := p.Stats(id); err != nil {
		return nil, err
	}
	proj, err := p.Project(id)
	if err != nil {
		return nil, err
	}
	return &stream{tbl: proj.Table, answers: append([]tabular.Answer(nil), proj.Log.All()...)}, nil
}

func (st *stream) cut(events []genEvent) {
	for _, ev := range events {
		st.bounds = append(st.bounds, ev.seen)
	}
}
