package main

import (
	"errors"
	"testing"

	"tcrowd/internal/metrics"
	"tcrowd/internal/platform"
	"tcrowd/internal/reputation"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// The sim/accuracy-spam-* series pins the VALUE of the reputation defense
// rather than its speed: the same pre-drawn spam-laced answer stream is
// replayed twice through the platform — defense off, then on — and the
// final-estimate accuracy of both runs lands in the BENCH file as custom
// metrics (acc_off_pct / acc_on_pct / gap_pct, plus the flagged-worker
// precision and recall of the defended run). The series is NOT under the
// ns/op regression gate (`sim/` is absent from the -gate default): its
// contract is the accuracy gap, asserted by the committed BENCH numbers
// and by client.TestAdversarialSpamDefenseEndToEnd at the wire.

// spamScenario is one adversarial workload: an all-categorical table (so
// accuracy is a clean label-match count) and a pre-drawn submission
// stream with the population's spam blanket-covering every cell while
// honest workers cover only a fraction.
type spamScenario struct {
	ds    *simulate.Dataset
	batch []spamBatch
}

type spamBatch struct {
	worker  tabular.WorkerID
	answers []tabular.Answer
	metas   []platform.AnswerMeta
}

// newSpamScenario draws the workload. deceiverFrac of the 10-worker
// population coordinates on the same wrong label per cell; coverage is
// the honest workers' per-cell answer probability. Cells are visited in
// row-major windows, honest submissions preceding spam within each
// window, as task-ordered collection produces.
func newSpamScenario(seed int64, deceiverFrac, junkFrac, coverage float64) *spamScenario {
	ds := simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows:      30,
		Cols:      3,
		CatRatio:  1,
		MinLabels: 3,
		MaxLabels: 4,
		Population: simulate.PopulationConfig{
			N:            10,
			MedianPhi:    0.12,
			DeceiverFrac: deceiverFrac,
			JunkFrac:     junkFrac,
		},
	})
	cr := simulate.NewCrowd(ds, seed+1)
	cov := stats.NewRNG(seed + 2)
	rows, cols := ds.Table.NumRows(), ds.Table.NumCols()
	var cells []tabular.Cell
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cells = append(cells, tabular.Cell{Row: i, Col: j})
		}
	}
	var order []int
	for pass := 0; pass < 2; pass++ {
		for i := range ds.Workers {
			if (ds.Workers[i].Persona == simulate.Honest) == (pass == 0) {
				order = append(order, i)
			}
		}
	}
	sc := &spamScenario{ds: ds}
	const window = 6
	for at := 0; at < len(cells); at += window {
		win := cells[at:min(at+window, len(cells))]
		for _, wi := range order {
			w := &ds.Workers[wi]
			b := spamBatch{worker: w.ID}
			for _, c := range win {
				if w.Persona == simulate.Honest && cov.Float64() > coverage {
					continue
				}
				a, ms := cr.AnswerMeta(w, c)
				b.answers = append(b.answers, a)
				b.metas = append(b.metas, platform.AnswerMeta{WorkTimeMs: ms})
			}
			if len(b.answers) > 0 {
				sc.batch = append(sc.batch, b)
			}
		}
	}
	return sc
}

// replay runs the stream against a fresh platform with the defense on or
// off and returns the truth-match accuracy of the final estimates plus
// the defended run's flagged-worker set (quarantined or banned).
func (sc *spamScenario) replay(b *testing.B, defense bool) (float64, []tabular.WorkerID) {
	p := platform.NewWithOptions(1, platform.Options{Workers: 1})
	defer p.Close()
	const id = "spam"
	if _, err := p.CreateProject(id, sc.ds.Table.Schema, platform.ProjectConfig{
		Rows:         sc.ds.Table.NumRows(),
		RefreshEvery: 1 << 30,
		Reputation:   defense,
	}); err != nil {
		b.Fatal(err)
	}
	banned := make(map[tabular.WorkerID]bool)
	for _, batch := range sc.batch {
		if banned[batch.worker] {
			continue
		}
		if _, err := p.SubmitBatch(id, batch.answers, batch.metas); err != nil {
			if !defense || !errors.Is(err, platform.ErrWorkerBanned) {
				b.Fatalf("defense=%v: worker %s: %v", defense, batch.worker, err)
			}
			banned[batch.worker] = true
		}
	}
	res, err := p.RunInference(id)
	if err != nil {
		b.Fatal(err)
	}
	matched, total := 0, 0
	for _, c := range sc.ds.Table.Cells() {
		est := res.Estimates.At(c)
		if est.Kind != tabular.Label {
			continue
		}
		total++
		if est.L == sc.ds.Table.TruthAt(c).L {
			matched++
		}
	}
	if total == 0 {
		b.Fatal("no categorical estimates")
	}
	var flagged []tabular.WorkerID
	if defense {
		infos, _, err := p.WorkerReputations(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range infos {
			if in.State >= reputation.Quarantined {
				flagged = append(flagged, in.Worker)
			}
		}
	}
	return float64(matched) / float64(total), flagged
}

// benchAccuracySpam builds the scenario once and replays it defense-off
// then defense-on per op, reporting the accuracy margin as custom metrics.
func benchAccuracySpam(deceiverFrac, junkFrac, coverage float64) func(b *testing.B) {
	return func(b *testing.B) {
		sc := newSpamScenario(41, deceiverFrac, junkFrac, coverage)
		var spammers []tabular.WorkerID
		for _, w := range sc.ds.Workers {
			if w.Persona != simulate.Honest {
				spammers = append(spammers, w.ID)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			accOff, _ := sc.replay(b, false)
			accOn, flagged := sc.replay(b, true)
			det := metrics.EvaluateSpamDetection(spammers, flagged)
			b.ReportMetric(100*accOff, "acc_off_pct")
			b.ReportMetric(100*accOn, "acc_on_pct")
			b.ReportMetric(100*(accOn-accOff), "gap_pct")
			b.ReportMetric(100*det.Precision, "spam_precision_pct")
			b.ReportMetric(100*det.Recall, "spam_recall_pct")
		}
	}
}
