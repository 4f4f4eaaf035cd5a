package core

import (
	"maps"
	"math"
	"slices"

	"tcrowd/internal/ingest"
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// Posterior is the read side of a fitted Model: the per-cell posterior
// truth distributions and the learned difficulties and worker variances —
// everything estimate extraction and task assignment (Sec. 5) read. Model
// embeds it, so a live model's &m.Posterior scores in place; Clone detaches
// an immutable copy that can be scored while the model keeps refreshing.
type Posterior struct {
	Table *tabular.Table
	// Eps is the quality window of Eq. 2 (Options.Eps).
	Eps float64

	// Alpha[i], Beta[j] are row/column difficulties; Phi[k] is the
	// variance of the k-th worker in WorkerIDs order.
	Alpha, Beta []float64
	Phi         []float64
	WorkerIDs   []tabular.WorkerID
	workerIdx   map[tabular.WorkerID]int

	// ColMean/ColStd are the per-column standardisation constants
	// (answer mean and std; std==1, mean==0 for categorical columns).
	ColMean, ColStd []float64

	// CatPost[i][j] is the posterior label distribution of a categorical
	// cell (nil when not applicable or unanswered). In a Model the
	// distributions of all cells share one backing arena and are updated
	// in place by the E-step.
	CatPost [][][]float64
	// ContMu/ContVar hold the standardized posterior N(mu, var) of
	// continuous cells (valid where Answered).
	ContMu, ContVar [][]float64
	// Answered marks cells with at least one usable answer.
	Answered [][]bool

	// initPhi is the variance fallback of MedianPhi without workers
	// (Options.InitPhi); medianPhi caches MedianPhi across hot assignment
	// loops.
	initPhi, medianPhi float64
}

// allocCells sizes the per-cell fields for an n x mm table. Row views
// share flat backing arrays: one allocation per field instead of one per
// row.
func (p *Posterior) allocCells(n, mm int) {
	p.CatPost = make([][][]float64, n)
	p.ContMu = make([][]float64, n)
	p.ContVar = make([][]float64, n)
	p.Answered = make([][]bool, n)
	postRows := make([][]float64, n*mm)
	muFlat := make([]float64, n*mm)
	varFlat := make([]float64, n*mm)
	ansFlat := make([]bool, n*mm)
	for i := 0; i < n; i++ {
		p.CatPost[i] = postRows[i*mm : (i+1)*mm : (i+1)*mm]
		p.ContMu[i] = muFlat[i*mm : (i+1)*mm : (i+1)*mm]
		p.ContVar[i] = varFlat[i*mm : (i+1)*mm : (i+1)*mm]
		p.Answered[i] = ansFlat[i*mm : (i+1)*mm : (i+1)*mm]
	}
}

// Clone returns a deep copy of p that shares no mutable state with it
// (only the immutable Table): refreshing the model p belongs to leaves
// the copy untouched, so a published copy can be scored concurrently
// without locks. The categorical posteriors are packed into one arena.
func (p *Posterior) Clone() *Posterior {
	n, mm := len(p.Answered), len(p.ColMean)
	c := &Posterior{
		Table:     p.Table,
		Eps:       p.Eps,
		Alpha:     slices.Clone(p.Alpha),
		Beta:      slices.Clone(p.Beta),
		Phi:       slices.Clone(p.Phi),
		WorkerIDs: slices.Clone(p.WorkerIDs),
		workerIdx: maps.Clone(p.workerIdx),
		ColMean:   slices.Clone(p.ColMean),
		ColStd:    slices.Clone(p.ColStd),
		initPhi:   p.initPhi,
		medianPhi: p.MedianPhi(),
	}
	c.allocCells(n, mm)
	total := 0
	for i := 0; i < n; i++ {
		copy(c.ContMu[i], p.ContMu[i])
		copy(c.ContVar[i], p.ContVar[i])
		copy(c.Answered[i], p.Answered[i])
		for _, post := range p.CatPost[i] {
			total += len(post)
		}
	}
	arena := make([]float64, 0, total)
	for i := 0; i < n; i++ {
		for j, post := range p.CatPost[i] {
			if post != nil {
				off := len(arena)
				arena = append(arena, post...)
				c.CatPost[i][j] = arena[off:len(arena):len(arena)]
			}
		}
	}
	return c
}

// Observe folds one more answer into its cell's truth distribution with
// the fitted difficulties and worker variances held fixed — the
// single-cell update of Sec. 5.1 ("we update the truth distribution T_ij
// ... mostly and maintain other parameters"), applied to an answer that
// actually arrived. It is meant for detached copies (Clone) that must
// keep scoring between refits; a Model's own posteriors belong to its EM.
func (p *Posterior) Observe(a tabular.Answer) {
	i, j := a.Cell.Row, a.Cell.Col
	s := p.CellVarianceFor(a.Worker, a.Cell)
	if post, ok := p.PosteriorCat(a.Cell); ok {
		p.CatPost[i][j] = CatPosteriorWithAnswer(post, a.Value.L, p.Eps, s)
	} else {
		mu, v, _ := p.PosteriorCont(a.Cell)
		v1 := ContVarWithAnswer(v, s)
		p.ContMu[i][j] = v1 * (mu/v + p.ToZ(j, a.Value.X)/s)
		p.ContVar[i][j] = v1
	}
	p.Answered[i][j] = true
}

// Estimates extracts the point estimates T̂_ij: the posterior argmax for
// categorical cells, the posterior mean (mapped back to natural units) for
// continuous cells. Cells without usable answers remain None. The returned
// grid is freshly allocated — callers may retain it across refreshes (the
// platform's immutable generation snapshots do). Hot refresh paths that
// own a reusable grid should use EstimatesInto instead.
func (p *Posterior) Estimates() metrics.Estimates {
	est := metrics.NewEstimates(p.Table)
	p.EstimatesInto(est)
	return est
}

// EstimatesInto fills a caller-owned grid (shaped for p.Table, e.g. by
// metrics.NewEstimates) with the current point estimates, allocating
// nothing. This is the steady-state path of the assignment engine's
// per-refresh state rebuild.
//
//tcrowd:noalloc
func (p *Posterior) EstimatesInto(est metrics.Estimates) {
	for i := 0; i < p.Table.NumRows(); i++ {
		row := est[i]
		for j := 0; j < p.Table.NumCols(); j++ {
			row[j] = p.EstimateCell(i, j)
		}
	}
}

// EstimateCell returns the current point estimate of one cell (None when
// unanswered).
//
//tcrowd:noalloc
func (p *Posterior) EstimateCell(i, j int) tabular.Value {
	if !p.Answered[i][j] {
		return tabular.Value{}
	}
	if post := p.CatPost[i][j]; post != nil {
		return tabular.LabelValue(argMax(post))
	}
	x := stats.Unstandardize(p.ContMu[i][j], p.ColMean[j], p.ColStd[j])
	return tabular.NumberValue(x)
}

func argMax(p []float64) int {
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// PhiFor returns the inferred variance of worker u, falling back to the
// median of all inferred variances (or InitPhi with no workers) for workers
// the model has not seen — the sensible prior for a fresh arrival in online
// assignment.
func (p *Posterior) PhiFor(u tabular.WorkerID) float64 {
	if k, ok := p.workerIdx[u]; ok {
		return p.Phi[k]
	}
	return p.MedianPhi()
}

// MedianPhi returns the population median variance (InitPhi when empty).
// The cache is written once at the end of the EM run; reads never mutate,
// so concurrent assignment scoring is race-free.
func (p *Posterior) MedianPhi() float64 {
	if p.medianPhi > 0 {
		return p.medianPhi
	}
	if len(p.Phi) == 0 {
		return p.initPhi
	}
	return stats.Median(p.Phi)
}

// WorkerQuality returns the unified quality q_u = erf(eps / sqrt(2 phi_u))
// of Eq. 2.
func (p *Posterior) WorkerQuality(u tabular.WorkerID) float64 {
	return math.Erf(p.Eps / math.Sqrt(2*p.PhiFor(u)))
}

// CellVarianceFor returns the effective variance s = alpha_i beta_j phi_u
// that worker u's answer on cell c would carry.
func (p *Posterior) CellVarianceFor(u tabular.WorkerID, c tabular.Cell) float64 {
	return stats.Clamp(p.Alpha[c.Row]*p.Beta[c.Col]*p.PhiFor(u), minS, maxS)
}

// CellQuality returns q^u_ij = erf(eps / sqrt(2 alpha_i beta_j phi_u))
// (Sec. 4.2).
func (p *Posterior) CellQuality(u tabular.WorkerID, c tabular.Cell) float64 {
	return math.Erf(p.Eps / math.Sqrt(2*p.CellVarianceFor(u, c)))
}

// PosteriorCat returns a copy of the posterior label distribution for a
// categorical cell, falling back to the uniform prior when the cell is
// unanswered. The boolean is false for continuous cells.
func (p *Posterior) PosteriorCat(c tabular.Cell) ([]float64, bool) {
	col := p.Table.Schema.Columns[c.Col]
	if col.Type != tabular.Categorical {
		return nil, false
	}
	if post := p.CatPost[c.Row][c.Col]; post != nil {
		return append([]float64(nil), post...), true
	}
	return stats.NewCategoricalUniform(col.NumLabels()).P, true
}

// PosteriorCont returns the standardized posterior (mean, variance) of a
// continuous cell, falling back to the N(0,1) prior when unanswered. The
// boolean is false for categorical cells.
func (p *Posterior) PosteriorCont(c tabular.Cell) (mu, variance float64, ok bool) {
	if p.Table.Schema.Columns[c.Col].Type != tabular.Continuous {
		return 0, 0, false
	}
	if p.Answered[c.Row][c.Col] {
		return p.ContMu[c.Row][c.Col], p.ContVar[c.Row][c.Col], true
	}
	return 0, 1, true
}

// Entropy returns the uniform entropy H(T_ij) of Sec. 5.1: Shannon entropy
// for categorical cells, differential entropy (in standardized units) for
// continuous cells.
func (p *Posterior) Entropy(c tabular.Cell) float64 {
	if post, ok := p.PosteriorCat(c); ok {
		return stats.ShannonEntropy(post)
	}
	_, v, _ := p.PosteriorCont(c)
	return stats.DifferentialEntropyNormal(v)
}

// ToZ standardizes a natural-unit value of column j; FromZ inverts it.
func (p *Posterior) ToZ(j int, x float64) float64 {
	return stats.Standardize(x, p.ColMean[j], p.ColStd[j])
}

// FromZ maps a standardized value of column j back to natural units.
func (p *Posterior) FromZ(j int, z float64) float64 {
	return stats.Unstandardize(z, p.ColMean[j], p.ColStd[j])
}

// CatPosteriorWithAnswer returns the posterior after also observing a
// (hypothetical) answer with label `label` whose effective variance is s —
// the single-cell update behind information-gain scoring ("we update the
// truth distribution T_ij ... mostly and maintain other parameters",
// Sec. 5.1).
func CatPosteriorWithAnswer(post []float64, label int, eps, s float64) []float64 {
	l := len(post)
	lnQ, lnNotQ := logQ(eps, s)
	lnWrong := lnNotQ - math.Log(float64(l-1))
	logp := make([]float64, l)
	for z := range post {
		lp := math.Inf(-1)
		if post[z] > 0 {
			lp = math.Log(post[z])
		}
		if z == label {
			logp[z] = lp + lnQ
		} else {
			logp[z] = lp + lnWrong
		}
	}
	return stats.NormalizeLogProbs(logp)
}

// ContVarWithAnswer returns the posterior variance after also observing one
// answer of variance s: precisions add, independent of the answer's value —
// which is why continuous information gain needs no sampling under fixed
// parameters.
func ContVarWithAnswer(variance, s float64) float64 {
	return 1 / (1/variance + 1/s)
}

// AnswerDistribution returns the predictive distribution of worker u's
// hypothetical answer on categorical cell c: P(a = z') =
// sum_z P(T=z) P(a=z' | T=z) under the worker model.
func (p *Posterior) AnswerDistribution(u tabular.WorkerID, c tabular.Cell) ([]float64, bool) {
	post, ok := p.PosteriorCat(c)
	if !ok {
		return nil, false
	}
	s := p.CellVarianceFor(u, c)
	q := math.Erf(p.Eps / math.Sqrt(2*s))
	l := len(post)
	wrong := (1 - q) / float64(l-1)
	out := make([]float64, l)
	for zp := 0; zp < l; zp++ {
		pz := 0.0
		for z := 0; z < l; z++ {
			if z == zp {
				pz += post[z] * q
			} else {
				pz += post[z] * wrong
			}
		}
		out[zp] = pz
	}
	return out, true
}

// NumAnswersUsed reports how many answers survived the mode filter.
func (m *Model) NumAnswersUsed() int { return len(m.ilog.Ans) }

// Answers returns the model's CSR answer store — every answer the fit
// holds, decoded, with workers addressed by their WorkerIDs index. It is
// the model's own state, grown in place by Ingest: callers only read it,
// between refreshes.
func (m *Model) Answers() *ingest.Log { return m.ilog }
