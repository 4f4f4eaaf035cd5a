package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcrowd/api"
	"tcrowd/internal/simulate"
)

// ingest isolates the write path: bulk imports into 8 projects at once,
// each a fixed-assignment collection (5 answers per cell) cut into
// one-worker-one-row HITs and interleaved across projects. Each project's
// refresh_every exceeds its import size, so no inference runs until the
// requester's one read at the end. Rounds of 8 fresh projects repeat until
// the run's time is spent, and at least ingestScored times.
type ingest struct {
	seed int64
}

const (
	ingestProjects         = 8
	ingestRows, ingestCols = 100, 6
	ingestPerCell          = 5
	ingestImport           = ingestRows * ingestCols * ingestPerCell
	// ingestScored is how many rounds, the first ones, the quality
	// metrics score, so that every run scores the same projects.
	ingestScored = 8
)

func (w *ingest) project(round, k int) (string, *simulate.Dataset) {
	return fmt.Sprintf("import-%d-%d", round, k), dataset(subSeed(w.seed, round, k), ingestRows, ingestCols, 60)
}

func (w *ingest) createRound(ctx context.Context, e *env, round int) error {
	for k := 0; k < ingestProjects; k++ {
		id, ds := w.project(round, k)
		if err := e.c.CreateProject(ctx, api.CreateProjectRequest{
			ID:           id,
			Schema:       apiSchema(ds.Table.Schema),
			Rows:         ingestRows,
			RefreshEvery: ingestImport + 1,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingest) setup(dir string, t *tracer) (*env, error) {
	e, err := startEnv(dir, w.seed, t)
	if err != nil {
		return nil, err
	}
	if err := w.createRound(context.Background(), e, 0); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// roundHITs is round r's import stream: every project's HITs,
// interleaved.
func (w *ingest) roundHITs(round int) ([]*simulate.Dataset, []hit) {
	dss := make([]*simulate.Dataset, ingestProjects)
	per := make([][]hit, ingestProjects)
	for k := range per {
		var id string
		id, dss[k] = w.project(round, k)
		per[k] = fixedHITs(dss[k], subSeed(w.seed, round, k, 1), id, ingestPerCell)
	}
	return dss, interleave(per)
}

func (w *ingest) run(e *env, seconds float64, ck *checks) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome(e.p)
	start := time.Now()
	for round := 0; round < ingestScored || time.Since(start).Seconds() < seconds; round++ {
		if round > 0 {
			if err := w.createRound(ctx, e, round); err != nil {
				return nil, err
			}
		}
		dss, hits := w.roundHITs(round)
		ids := make([]string, ingestProjects)
		watches := make([]*watchLog, ingestProjects)
		for k := range ids {
			ids[k], _ = w.project(round, k)
			wl, err := startWatch(e.p, ids[k])
			if err != nil {
				return nil, err
			}
			watches[k] = wl
		}
		o.watching.Store(&ids)
		busy0 := shardTotals(e.p).busy
		keep := o.keepsStreams(e)

		var next atomic.Int64
		acked := make([]atomic.Int64, ingestProjects)
		index := make(map[string]int, ingestProjects)
		for k, id := range ids {
			index[id] = k
		}
		type clientRec struct {
			cnt      counter
			submit   []float64
			deferred int
		}
		recs := make([]clientRec, 2)
		t0, cpu0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		for g := range recs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := &recs[g]
				for {
					i := int(next.Add(1)) - 1
					if i >= len(hits) {
						return
					}
					h := hits[i]
					var resp *api.SubmitAnswersResponse
					t := time.Now()
					err := e.trace.call(ctx, "submit", func(ctx context.Context) (err error) {
						resp, err = e.c.SubmitAnswers(ctx, h.Project, h.Answers)
						return err
					})
					r.cnt.add(err)
					if err != nil {
						continue
					}
					r.submit = append(r.submit, ms(time.Since(t)))
					acked[index[h.Project]].Add(int64(len(h.Answers)))
					if resp.Refresh == api.RefreshDeferred {
						r.deferred++
					}
				}
			}(g)
		}
		wg.Wait()
		window, cpu := time.Since(t0), cpuTime()-cpu0
		var submit []float64
		for g := range recs {
			o.cnt.attempted += recs[g].cnt.attempted
			o.cnt.failed += recs[g].cnt.failed
			submit = append(submit, recs[g].submit...)
			o.deferred += recs[g].deferred
		}
		answers := 0
		for k := range acked {
			answers += int(acked[k].Load())
		}
		o.record(answers, window, cpu, submit)

		batches := make([][][]api.Answer, ingestProjects)
		for _, h := range hits {
			k := index[h.Project]
			batches[k] = append(batches[k], h.Answers)
		}
		for k, id := range ids {
			n := int(acked[k].Load())
			res, err := o.freshRead(ctx, e, id, ck)
			events := watches[k].stop(id, ck)
			o.events = append(o.events, events...)
			if err == nil {
				if rep, ok := checkRead(ck, id, dss[k], res, n, batches[k]); ok && round < ingestScored {
					o.q.add(rep)
				}
			}
			if keep {
				st, err := capture(e.p, id)
				if err != nil {
					return nil, err
				}
				st.cut(events)
				o.streams = append(o.streams, st)
			}
		}
		if keep {
			o.replayBusy += shardTotals(e.p).busy - busy0
		}
		o.watching.Store(&[]string{})
		for _, id := range ids {
			if err := e.c.DeleteProject(ctx, id); err != nil {
				return nil, fmt.Errorf("delete %s: %w", id, err)
			}
		}
	}
	return o.finish(e.p), nil
}
