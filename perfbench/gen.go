package main

import (
	"tcrowd/api"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// subSeed derives an independent stream seed from the run seed and a
// path of indices (loop, project, client ...), so every generated input
// is a pure function of --seed.
func subSeed(seed int64, path ...int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range path {
		h ^= uint64(p) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// dataset plants a rows × cols table (half categorical) with ground truth
// and a crowd of the given size drawn from the simulator's default
// long-tailed quality distribution.
func dataset(seed int64, rows, cols, crowd int) *simulate.Dataset {
	return simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows:       rows,
		Cols:       cols,
		CatRatio:   0.5,
		Population: simulate.PopulationConfig{N: crowd},
	})
}

// apiSchema converts a table schema to its wire form.
func apiSchema(s tabular.Schema) api.Schema {
	out := api.Schema{Key: s.Key}
	for _, col := range s.Columns {
		ac := api.Column{Name: col.Name, Min: col.Min, Max: col.Max}
		if col.Type == tabular.Categorical {
			ac.Type = "categorical"
			ac.Labels = col.Labels
		} else {
			ac.Type = "continuous"
		}
		out.Columns = append(out.Columns, ac)
	}
	return out
}

// apiAnswer converts a drawn answer (plus its work time, 0 = unreported)
// to the wire form.
func apiAnswer(s tabular.Schema, a tabular.Answer, workMs int64) api.Answer {
	col := s.Columns[a.Cell.Col]
	out := api.Answer{
		Worker:     string(a.Worker),
		Row:        a.Cell.Row,
		Column:     col.Name,
		WorkTimeMs: workMs,
	}
	if col.Type == tabular.Categorical {
		l := col.Labels[a.Value.L]
		out.Label = &l
	} else {
		x := a.Value.X
		out.Number = &x
	}
	return out
}

// hit is one SubmitAnswers batch: one worker's answers to every column of
// one row, the paper's HIT shape (Sec. 6.1).
type hit struct {
	Project string
	Answers []api.Answer
}

// fixedHITs draws the fixed-assignment collection (answersPerTask distinct
// workers per row) for ds and cuts it into per-worker-per-row HITs, in the
// simulator's row-major order.
func fixedHITs(ds *simulate.Dataset, seed int64, project string, answersPerTask int) []hit {
	log := simulate.NewCrowd(ds, seed).FixedAssignment(answersPerTask)
	cols := ds.Table.NumCols()
	all := log.All()
	out := make([]hit, 0, len(all)/cols)
	for at := 0; at+cols <= len(all); at += cols {
		h := hit{Project: project, Answers: make([]api.Answer, cols)}
		for j, a := range all[at : at+cols] {
			h.Answers[j] = apiAnswer(ds.Table.Schema, a, 0)
		}
		out = append(out, h)
	}
	return out
}

// interleave merges per-project HIT lists round-robin, the arrival order
// of several imports running side by side.
func interleave(perProject [][]hit) []hit {
	var out []hit
	for k := 0; ; k++ {
		added := false
		for _, hs := range perProject {
			if k < len(hs) {
				out = append(out, hs[k])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// answerKey identifies one answer slot for work-time lookups in replay.
type answerKey struct {
	w   tabular.WorkerID
	row int
	col int
}
