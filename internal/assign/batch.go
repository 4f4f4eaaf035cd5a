package assign

import (
	"math"

	"tcrowd/internal/core"
	"tcrowd/internal/tabular"
)

// Exact batch selection (Sec. 5.3). The greedy top-K used by the policies
// treats cells independently; the exact objective IG(D) of Eq. 9 couples
// cells of the same *column pair* only through the worker's quality, but
// cells sharing a posterior (the same cell twice) are excluded by
// construction, so the residual coupling is the budget constraint itself.
// ExactBatch searches all size-K subsets and exists (a) as ground truth for
// tests that bound the greedy approximation error, and (b) for callers with
// tiny task pools where exhaustive search is affordable.

// ExactBatch returns the size-k subset of cands maximising the summed
// information gain for worker u, by exhaustive search. The search space is
// C(len(cands), k); callers must keep len(cands) small (say <= 25).
func ExactBatch(m *core.Posterior, u tabular.WorkerID, cands []tabular.Cell, k int) ([]tabular.Cell, float64) {
	if k <= 0 || len(cands) == 0 {
		return nil, 0
	}
	if k > len(cands) {
		k = len(cands)
	}
	gains := make([]float64, len(cands))
	for i, c := range cands {
		gains[i] = InfoGain(m, u, c)
	}

	bestGain := math.Inf(-1)
	var best []int
	subset := make([]int, k)
	var rec func(start, depth int, acc float64)
	rec = func(start, depth int, acc float64) {
		if depth == k {
			if acc > bestGain {
				bestGain = acc
				best = append(best[:0], subset...)
			}
			return
		}
		// Prune: even taking the largest remaining gains cannot win.
		remaining := k - depth
		if len(cands)-start < remaining {
			return
		}
		for i := start; i <= len(cands)-remaining; i++ {
			subset[depth] = i
			rec(i+1, depth+1, acc+gains[i])
		}
	}
	rec(0, 0, 0)

	out := make([]tabular.Cell, len(best))
	for i, idx := range best {
		out[i] = cands[idx]
	}
	return out, bestGain
}

// GreedyBatch returns the greedy top-K cells by information gain along with
// the summed gain, for comparison against ExactBatch.
func GreedyBatch(m *core.Posterior, u tabular.WorkerID, cands []tabular.Cell, k int) ([]tabular.Cell, float64) {
	if k <= 0 || len(cands) == 0 {
		return nil, 0
	}
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = InfoGain(m, u, c)
	}
	picked := topK(cands, scores, k)
	total := 0.0
	for _, c := range picked {
		total += InfoGain(m, u, c)
	}
	return picked, total
}
