package assign

import (
	"math"
	"testing"

	"tcrowd/internal/tabular"
)

func TestExactBatchMatchesGreedyOnAdditiveGains(t *testing.T) {
	// With the per-cell additive objective, greedy top-K is optimal, so
	// exact search must agree on the total gain (sets may tie-break
	// differently).
	_, m := fittedModel(t, 90)
	u := m.WorkerIDs[0]
	cands := m.Table.Cells()[:18]
	for _, k := range []int{1, 3, 6} {
		exactCells, exactGain := ExactBatch(&m.Posterior, u, cands, k)
		greedyCells, greedyGain := GreedyBatch(&m.Posterior, u, cands, k)
		if len(exactCells) != k || len(greedyCells) != k {
			t.Fatalf("k=%d: sizes %d/%d", k, len(exactCells), len(greedyCells))
		}
		if math.Abs(exactGain-greedyGain) > 1e-9 {
			t.Fatalf("k=%d: exact %v vs greedy %v", k, exactGain, greedyGain)
		}
	}
}

func TestExactBatchEdgeCases(t *testing.T) {
	_, m := fittedModel(t, 91)
	u := m.WorkerIDs[0]
	cands := m.Table.Cells()[:5]
	if cells, _ := ExactBatch(&m.Posterior, u, cands, 0); cells != nil {
		t.Fatal("k=0 should select nothing")
	}
	if cells, _ := ExactBatch(&m.Posterior, u, nil, 3); cells != nil {
		t.Fatal("no candidates should select nothing")
	}
	// k larger than the pool clamps.
	cells, _ := ExactBatch(&m.Posterior, u, cands, 99)
	if len(cells) != 5 {
		t.Fatalf("clamped k: %d", len(cells))
	}
	seen := map[tabular.Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatal("duplicate cell in batch")
		}
		seen[c] = true
	}
}

func TestGreedyBatchGainIsSumOfInfoGains(t *testing.T) {
	_, m := fittedModel(t, 92)
	u := m.WorkerIDs[0]
	cands := m.Table.Cells()[:10]
	cells, total := GreedyBatch(&m.Posterior, u, cands, 4)
	want := 0.0
	for _, c := range cells {
		want += InfoGain(&m.Posterior, u, c)
	}
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("total %v want %v", total, want)
	}
}
