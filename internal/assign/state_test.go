package assign

import (
	"reflect"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// TestFrozenStateSelectsLikeLiveSystem pins the serving contract of
// State.Frozen: for one fitted state, structure-aware selection through
// the frozen view returns exactly the cells TCrowdSystem.Select returns on
// the live model, later refreshes of the live model leave the view's
// picks unchanged, and CatchUp folds exactly the view log's new answers
// into the view's posterior.
func TestFrozenStateSelectsLikeLiveSystem(t *testing.T) {
	ds, log := refreshWorkload(520)
	sys := NewTCrowdSystem(1)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	crowd := simulate.NewCrowd(ds, 521)
	crowd.AppendBatch(log, 30)
	if err := sys.Refresh(ds.Table, log); err != nil { // streaming tier
		t.Fatal(err)
	}

	viewLog := log.Clone()
	view := sys.st.Frozen(sys.Model().Estimates(), viewLog, viewLog.Len())
	if view.Err == nil {
		t.Fatal("frozen view lost the error model")
	}
	workers := []tabular.WorkerID{"fresh-worker"}
	for _, w := range ds.Workers[:8] {
		workers = append(workers, w.ID)
	}
	want := make(map[tabular.WorkerID][]tabular.Cell, len(workers))
	for _, u := range workers {
		live := sys.Select(u, 5, log)
		got := StructureIG{}.Select(view, u, 5)
		if len(live) == 0 || !reflect.DeepEqual(got, live) {
			t.Fatalf("worker %s: frozen view picked %v, live system %v", u, got, live)
		}
		want[u] = got
	}

	crowd.AppendBatch(log, 60)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	for _, u := range workers {
		if got := (StructureIG{}).Select(view, u, 5); !reflect.DeepEqual(got, want[u]) {
			t.Fatalf("worker %s: frozen picks moved with the live model: %v -> %v", u, want[u], got)
		}
	}

	// CatchUp: the answers appended to the view's log since its fit, one
	// single-cell update each, and nothing else.
	fitted := viewLog.Len()
	crowd.AppendBatch(viewLog, 20)
	caught := view.Model.Clone()
	for _, a := range viewLog.All()[fitted:] {
		caught.Observe(a)
	}
	view.CatchUp()
	if !reflect.DeepEqual(view.Model, caught) || view.Fitted != viewLog.Len() {
		t.Fatalf("CatchUp folded the wrong answers (fitted %d, log %d)", view.Fitted, viewLog.Len())
	}
}
