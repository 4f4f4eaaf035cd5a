package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"tcrowd/api"
	"tcrowd/internal/metrics"
	"tcrowd/internal/platform"
	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// checks collects output-check failures; any failure makes the run
// incorrect.
type checks struct {
	mu    sync.Mutex
	fails []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// counter tallies operations attempted and failed by one generator.
type counter struct {
	attempted, failed int
}

func (c *counter) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// genEvent is one published generation as the in-process watch consumer
// saw it.
type genEvent struct {
	gen, seen, delta int
	at               time.Time
}

// watchLog consumes one project's Platform.Watch stream for the length of
// a phase.
type watchLog struct {
	w      *platform.Watcher
	done   chan struct{}
	events []genEvent
}

func startWatch(p *platform.Platform, id string) (*watchLog, error) {
	w, err := p.Watch(id)
	if err != nil {
		return nil, err
	}
	wl := &watchLog{w: w, done: make(chan struct{})}
	go func() {
		defer close(wl.done)
		for ev := range w.Events() {
			wl.events = append(wl.events, genEvent{gen: ev.Generation, seen: ev.AnswersSeen, delta: ev.AnswersDelta, at: time.Now()})
		}
	}()
	return wl, nil
}

// stop unsubscribes, waits for the consumer and checks that generations
// strictly increased.
func (wl *watchLog) stop(id string, ck *checks) []genEvent {
	wl.w.Close()
	<-wl.done
	for i := 1; i < len(wl.events); i++ {
		if wl.events[i].gen <= wl.events[i-1].gen {
			ck.failf("%s: watch generation %d after %d", id, wl.events[i].gen, wl.events[i-1].gen)
		}
	}
	return wl.events
}

// ack is one acknowledged batch: its log position (Stats.Answers read
// right after the 201) and when the 201 arrived.
type ack struct {
	pos int
	at  time.Time
}

// freshMs returns, per ack, the time from the ack to the first published
// generation whose AnswersSeen covers it. Acks never covered during the
// phase are skipped; a generation observed before the 201 reached the
// client counts as 0.
func freshMs(acks []ack, events []genEvent) []float64 {
	out := make([]float64, 0, len(acks))
	for _, a := range acks {
		i := sort.Search(len(events), func(i int) bool { return events[i].seen >= a.pos })
		if i == len(events) {
			continue
		}
		out = append(out, max(0, ms(events[i].at.Sub(a.at))))
	}
	return out
}

// quality pools the paper's measures over every scored project: error
// rate over all categorical cells, MNAD averaged over projects.
type quality struct {
	wrong, catCells int
	mnad            []float64
}

func (q *quality) add(rep metrics.Report) {
	q.catCells += rep.CatCells
	q.wrong += int(rep.ErrorRate*float64(rep.CatCells) + 0.5)
	q.mnad = append(q.mnad, rep.MNAD)
}

// checkRead checks a strongly consistent read against the acknowledged
// answers (count and answered cells), then scores it against ds's ground
// truth. ok is false when the read could not be scored.
func checkRead(ck *checks, id string, ds *simulate.Dataset, res *api.EstimatesResponse, acked int, batches [][]api.Answer) (rep metrics.Report, ok bool) {
	tbl := ds.Table
	log, err := wireLog(tbl, batches)
	if err != nil {
		ck.failf("%s: %v", id, err)
		return rep, false
	}
	if res.AnswersSeen != acked {
		ck.failf("%s: fresh read saw %d answers, %d acknowledged", id, res.AnswersSeen, acked)
	}
	// Every answered cell has an estimate; an assignment policy may leave
	// cells unanswered when the budget runs out.
	answered := 0
	for i := 0; i < tbl.NumRows(); i++ {
		for j := 0; j < tbl.NumCols(); j++ {
			if log.CountByCell(tabular.Cell{Row: i, Col: j}) > 0 {
				answered++
			}
		}
	}
	if len(res.Estimates) != answered {
		ck.failf("%s: fresh read returned %d estimates for %d answered cells", id, len(res.Estimates), answered)
	}
	est, err := toEstimates(tbl, res.Estimates)
	if err != nil {
		ck.failf("%s: %v", id, err)
		return rep, false
	}
	return metrics.Evaluate(tbl, est, log), true
}

func (q *quality) errorRate() float64 { return float64(q.wrong) / float64(max(q.catCells, 1)) }

// toEstimates maps wire estimates onto the table grid, refusing unknown
// or duplicate cells.
func toEstimates(tbl *tabular.Table, in []api.Estimate) (metrics.Estimates, error) {
	col := make(map[string]int, tbl.NumCols())
	for j, c := range tbl.Schema.Columns {
		col[c.Name] = j
	}
	est := metrics.NewEstimates(tbl)
	seen := make(map[tabular.Cell]bool, len(in))
	for _, e := range in {
		var row int
		if _, err := fmt.Sscanf(e.Entity, "entity-%d", &row); err != nil || row < 1 || row > tbl.NumRows() {
			return nil, fmt.Errorf("estimate for unknown entity %q", e.Entity)
		}
		j, ok := col[e.Column]
		if !ok {
			return nil, fmt.Errorf("estimate for unknown column %q", e.Column)
		}
		c := tabular.Cell{Row: row - 1, Col: j}
		if seen[c] {
			return nil, fmt.Errorf("duplicate estimate for %s/%s", e.Entity, e.Column)
		}
		seen[c] = true
		switch {
		case e.Label != nil:
			l := slices.Index(tbl.Schema.Columns[j].Labels, *e.Label)
			if l < 0 {
				return nil, fmt.Errorf("estimate label %q not in column %s", *e.Label, e.Column)
			}
			est.Set(c, tabular.LabelValue(l))
		case e.Number != nil:
			est.Set(c, tabular.NumberValue(*e.Number))
		}
	}
	return est, nil
}

// fromWire converts a wire answer to the table's form.
func fromWire(tbl *tabular.Table, a api.Answer) (tabular.Answer, error) {
	j := colIndex(tbl, a.Column)
	if j < 0 {
		return tabular.Answer{}, fmt.Errorf("unknown column %q", a.Column)
	}
	v := tabular.Value{}
	if a.Number != nil {
		v = tabular.NumberValue(*a.Number)
	} else {
		l := slices.Index(tbl.Schema.Columns[j].Labels, *a.Label)
		if l < 0 {
			return tabular.Answer{}, fmt.Errorf("unknown label %q", *a.Label)
		}
		v = tabular.LabelValue(l)
	}
	return tabular.Answer{Worker: tabular.WorkerID(a.Worker), Cell: tabular.Cell{Row: a.Row, Col: j}, Value: v}, nil
}

// wireLog rebuilds an answer log from the wire answers the benchmark
// generated (the MNAD denominators are the per-column answer spread).
func wireLog(tbl *tabular.Table, batches [][]api.Answer) (*tabular.AnswerLog, error) {
	log := tabular.NewAnswerLog()
	for _, b := range batches {
		for _, a := range b {
			ta, err := fromWire(tbl, a)
			if err != nil {
				return nil, err
			}
			log.Add(ta)
		}
	}
	return log, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// shardDelta is the change in the scheduler's summed counters over a
// phase.
type shardDelta struct {
	jobs, enqueued, coalesced, rejected uint64
	busy                                time.Duration
}

func shardTotals(p *platform.Platform) shardDelta {
	var d shardDelta
	for _, m := range p.ShardMetrics() {
		d.jobs += m.Completed
		d.enqueued += m.Enqueued
		d.coalesced += m.Coalesced
		d.rejected += m.Rejected
		d.busy += time.Duration(m.BusyNs)
	}
	return d
}

func (d shardDelta) minus(o shardDelta) shardDelta {
	return shardDelta{
		jobs:      d.jobs - o.jobs,
		enqueued:  d.enqueued - o.enqueued,
		coalesced: d.coalesced - o.coalesced,
		rejected:  d.rejected - o.rejected,
		busy:      d.busy - o.busy,
	}
}

// sampler polls shard queue depth and publish lag (recorded answers minus
// the latest generation's AnswersSeen) every 10ms while a phase runs.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	depthMax int
	lag      []float64
}

func startSampler(p *platform.Platform, ids func() []string) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, m := range p.ShardMetrics() {
				s.depthMax = max(s.depthMax, m.Depth)
			}
			for _, id := range ids() {
				st, err := p.Stats(id)
				if err != nil {
					continue
				}
				seen := 0
				if res, err := p.Snapshot(id); err == nil {
					seen = res.AnswersSeen
				}
				s.lag = append(s.lag, float64(st.Answers-seen))
			}
		}
	}()
	return s
}

func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}
