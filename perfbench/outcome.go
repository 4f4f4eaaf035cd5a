package main

import (
	"context"
	"sync/atomic"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/platform"
)

// outcome is everything one timed phase measured.
type outcome struct {
	cnt counter
	// answers, window and cpu pool the submitting phases (not set-up,
	// final reads or project churn): acknowledged answers, their wall
	// time and the process CPU time spent meanwhile. Each loop or round
	// costs a different amount of work, and the pooled ratio averages
	// that out.
	answers     int
	window, cpu time.Duration

	submit, tasks, fresh []float64
	deferred             int
	q                    quality

	events  []genEvent
	streams []*stream
	// replayBusy is the shard busy time of the phases whose streams were
	// kept for replay. Streams are kept until it reaches replayBudget,
	// which bounds the replay's run time.
	replayBusy time.Duration

	watching atomic.Pointer[[]string]
	samp     *sampler
	sh0      shardDelta
	t0       time.Time
	shard    shardDelta
	wall     time.Duration
	workers  int
}

// newOutcome starts recording a phase.
func newOutcome(p *platform.Platform) *outcome {
	o := &outcome{sh0: shardTotals(p), t0: time.Now()}
	o.watching.Store(&[]string{})
	o.samp = startSampler(p, func() []string { return *o.watching.Load() })
	return o
}

// pageSize is the page size of every paged estimates read.
const pageSize = 250

// replayBudget caps the shard busy time whose streams a traced pass
// replays.
const replayBudget = 8 * time.Second

// keepsStreams reports whether a traced pass should still capture
// streams for replay.
func (o *outcome) keepsStreams(e *env) bool {
	return e.trace != nil && o.replayBusy < replayBudget
}

// record adds one submitting phase.
func (o *outcome) record(answers int, window, cpu time.Duration, submit []float64) {
	o.answers += answers
	o.window += window
	o.cpu += cpu
	o.submit = append(o.submit, submit...)
}

// finish stops the sampler and closes the shard accounting.
func (o *outcome) finish(p *platform.Platform) *outcome {
	o.samp.halt()
	o.shard = shardTotals(p).minus(o.sh0)
	o.wall = time.Since(o.t0)
	o.workers = p.NumShardWorkers()
	return o
}

// freshRead is the requester's strongly consistent read: it reflects
// every recorded answer. The first page waits for the refresh; the rest
// follow its cursor as "page" calls, and every page must stay on the first
// page's generation.
func (o *outcome) freshRead(ctx context.Context, e *env, id string, ck *checks) (*api.EstimatesResponse, error) {
	var res *api.EstimatesResponse
	err := e.trace.call(ctx, "final", func(ctx context.Context) (err error) {
		res, err = e.c.Estimates(ctx, id, client.EstimatesQuery{MinGeneration: api.GenerationFresh, Limit: pageSize})
		return err
	})
	o.cnt.add(err)
	for err == nil && res.NextCursor != "" {
		var page *api.EstimatesResponse
		err = e.trace.call(ctx, "page", func(ctx context.Context) (err error) {
			page, err = e.c.Estimates(ctx, id, client.EstimatesQuery{Cursor: res.NextCursor, Limit: pageSize})
			return err
		})
		o.cnt.add(err)
		if err != nil {
			break
		}
		if page.Generation != res.Generation {
			ck.failf("%s: final read page on generation %d, pinned to %d", id, page.Generation, res.Generation)
		}
		res.Estimates = append(res.Estimates, page.Estimates...)
		res.NextCursor = page.NextCursor
	}
	return res, err
}
