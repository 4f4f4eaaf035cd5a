package main

import (
	"sort"
	"time"

	"tcrowd/internal/assign"
	"tcrowd/internal/core"
	"tcrowd/internal/reputation"
	"tcrowd/internal/tabular"
)

// assignRefreshEvery is the platform's default refresh cadence, at which
// the assignment engine re-fits.
const assignRefreshEvery = 25

// replayStats times the inference and assignment layers on the answer
// streams a traced pass recorded, calling their public functions directly.
type replayStats struct {
	coldMs, refreshMs, estimatesMs, emIters []float64
	ingestTime                              time.Duration
	ingested                                int
	assignRefreshMs, selectUs               []float64
	// shardWork is the replayed work the platform runs on shard workers:
	// every core call plus the assign refreshes (Select runs on request
	// goroutines).
	shardWork time.Duration
}

func replay(streams []*stream, seed int64) replayStats {
	var rs replayStats
	for _, st := range streams {
		rs.core(st)
		if st.assign {
			rs.assign(st, seed)
		}
	}
	return rs
}

// core re-fits the stream at each published generation boundary the way
// the platform's refresh does: a cold core.Infer first, then
// IngestFrom + SetWorkerWeights + RefreshIncremental at the platform's
// polish budget, and Estimates for each publish.
func (rs *replayStats) core(st *stream) {
	bounds := append([]int(nil), st.bounds...)
	sort.Ints(bounds)
	log := tabular.NewAnswerLog()
	var rep *reputation.Engine
	if st.reputation {
		rep = reputation.NewEngine(reputation.Config{})
	}
	var m *core.Model
	for _, b := range bounds {
		b = min(b, len(st.answers))
		if m != nil && b <= log.Len() {
			continue
		}
		for log.Len() < b {
			a := st.answers[log.Len()]
			log.Add(a)
			if rep != nil {
				rep.Observe(reputation.Observation{Answer: a, WorkTimeMs: st.workMs[answerKey{a.Worker, a.Cell.Row, a.Cell.Col}]})
			}
		}
		t := time.Now()
		if m == nil {
			opts := core.Options{MaxIter: 50}
			if rep != nil {
				opts.WorkerWeights = rep.Weights()
			}
			fit, err := core.Infer(st.tbl, log, opts)
			if err != nil {
				return
			}
			m = fit
			d := time.Since(t)
			rs.coldMs = append(rs.coldMs, ms(d))
			rs.shardWork += d
		} else {
			n, err := m.IngestFrom(log)
			if err != nil {
				return
			}
			d := time.Since(t)
			rs.ingestTime += d
			rs.ingested += n
			rs.shardWork += d
			if rep != nil {
				m.SetWorkerWeights(rep.Weights())
			}
			t = time.Now()
			m.RefreshIncremental(50)
			d = time.Since(t)
			rs.refreshMs = append(rs.refreshMs, ms(d))
			rs.emIters = append(rs.emIters, float64(m.Iterations))
			rs.shardWork += d
		}
		t = time.Now()
		_ = m.Estimates()
		d := time.Since(t)
		rs.estimatesMs = append(rs.estimatesMs, ms(d))
		rs.shardWork += d
		if rep != nil {
			for _, u := range m.WorkerIDs {
				rep.ObserveModelQuality(u, m.WorkerQuality(u))
			}
		}
	}
}

// assign replays the assignment engine: Refresh every
// assignRefreshEvery answers, and Select for each recorded Tasks call at
// the log position it was made.
func (rs *replayStats) assign(st *stream, seed int64) {
	reqs := append([]taskReq(nil), st.reqs...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].pos < reqs[j].pos })
	sys := assign.NewTCrowdSystem(seed)
	log := tabular.NewAnswerLog()
	fitted := false
	ri := 0
	for pos := 0; pos <= len(st.answers); pos++ {
		for ; ri < len(reqs) && reqs[ri].pos <= pos; ri++ {
			if !fitted {
				continue
			}
			t := time.Now()
			sys.Select(reqs[ri].worker, reqs[ri].k, log)
			rs.selectUs = append(rs.selectUs, us(time.Since(t)))
		}
		if pos == len(st.answers) {
			break
		}
		log.Add(st.answers[pos])
		if log.Len()%assignRefreshEvery == 0 {
			t := time.Now()
			if err := sys.Refresh(st.tbl, log); err == nil {
				fitted = true
			}
			d := time.Since(t)
			rs.assignRefreshMs = append(rs.assignRefreshMs, ms(d))
			rs.shardWork += d
		}
	}
}
