package platform

import (
	"fmt"
	"reflect"
	"testing"

	"tcrowd/internal/assign"
	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// streamSchema is a small mixed schema for the streaming-inference tests.
func streamSchema() tabular.Schema {
	return tabular.Schema{
		Key: "restaurant",
		Columns: []tabular.Column{
			{Name: "cuisine", Type: tabular.Categorical, Labels: []string{"thai", "french", "diner"}},
			{Name: "price", Type: tabular.Continuous, Min: 0, Max: 100},
		},
	}
}

// TestRunInferenceStreamsDelta pins the platform's incremental path: after
// the first cold fit, repeated RunInference calls reuse and stream into the
// cached model instead of refitting, and reflect newly submitted answers.
func TestRunInferenceStreamsDelta(t *testing.T) {
	p := New(7)
	if _, err := p.CreateProject("r", streamSchema(), ProjectConfig{Rows: 4}); err != nil {
		t.Fatal(err)
	}
	submit := func(worker string, row int, col string, v tabular.Value) {
		t.Helper()
		mustSubmit(t, p, "r", tabular.WorkerID(worker), row, col, v)
	}
	for row := 0; row < 4; row++ {
		for _, w := range []string{"ann", "bob", "cho"} {
			submit(w, row, "cuisine", tabular.LabelValue(row%3))
			submit(w, row, "price", tabular.NumberValue(float64(10*row+5)))
		}
	}

	res1, err := p.RunInference("r")
	if err != nil {
		t.Fatal(err)
	}
	proj, _ := p.Project("r")
	m1 := proj.lastModel
	if m1 == nil {
		t.Fatal("no cached model after cold inference")
	}

	// New answers from a new worker: the next inference must stream them
	// into the same model, not rebuild.
	submit("dee", 0, "cuisine", tabular.LabelValue(1))
	submit("dee", 0, "price", tabular.NumberValue(95))
	res2, err := p.RunInference("r")
	if err != nil {
		t.Fatal(err)
	}
	if proj.lastModel != m1 {
		t.Fatal("incremental inference rebuilt the model")
	}
	if proj.logAtModel != proj.Log.Len() {
		t.Fatalf("model absorbed %d answers, log has %d", proj.logAtModel, proj.Log.Len())
	}
	if _, ok := res2.WorkerQuality["dee"]; !ok {
		t.Fatal("streamed worker missing from quality report")
	}
	if len(res2.Estimates) != len(res1.Estimates) {
		t.Fatalf("estimate table shape changed: %d vs %d rows", len(res2.Estimates), len(res1.Estimates))
	}

	// No new answers: the cached fit is served as is.
	if _, err := p.RunInference("r"); err != nil {
		t.Fatal(err)
	}
	if proj.lastModel != m1 {
		t.Fatal("idle inference rebuilt the model")
	}
}

// TestRefreshHoldsEachAnswerTwice pins the project's answer storage: the
// model is fed from the log's delta and keeps no source log, so an answer
// lives in proj.Log and the model's CSR store only. Uneven batches under
// two refresh cadences must leave the store holding exactly the log's
// answers, and the live assignment error model — rebuilt on the last
// refresh, since the default polish cadence polishes every time — must
// equal one fitted from scratch on the store. A missed or double-counted
// delta answer shows up in one or the other.
func TestRefreshHoldsEachAnswerTwice(t *testing.T) {
	ds := simulate.Restaurant(31)
	answers := simulate.NewCrowd(ds, 32).FixedAssignment(3).All()[:600]
	for _, every := range []int{1, 25} {
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) {
			p := NewWithOptions(33, Options{Workers: 1})
			defer p.Close()
			if _, err := p.CreateProject("r", ds.Table.Schema, ProjectConfig{
				Rows:                ds.Table.NumRows(),
				UseTCrowdAssignment: true,
				RefreshEvery:        every,
			}); err != nil {
				t.Fatal(err)
			}
			// Wait out every refresh the cadence enqueues, so each one
			// streams its own delta instead of coalescing into the cold fit.
			sizes := []int{1, 7, 50}
			for i, k := 0, 0; i < len(answers); k++ {
				n := min(sizes[k%len(sizes)], len(answers)-i)
				res, err := p.SubmitBatch("r", answers[i:i+n], nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Refresh == RefreshEnqueued {
					if _, err := p.RunInference("r"); err != nil {
						t.Fatal(err)
					}
				}
				i += n
			}
			if _, err := p.RunInference("r"); err != nil {
				t.Fatal(err)
			}

			proj, _ := p.Project("r")
			proj.inferMu.Lock()
			defer proj.inferMu.Unlock()
			m := proj.lastModel
			if got, want := m.NumAnswersUsed(), proj.Log.Len(); got != want {
				t.Fatalf("model store holds %d answers, log %d", got, want)
			}
			if m.Log != nil {
				t.Fatal("model kept a source log: a third answer copy")
			}
			st := proj.assignSt
			fresh := assign.NewErrorModel(m)
			fresh.Rebuild(st.Est)
			if !reflect.DeepEqual(st.Err.Frozen(nil), fresh.Frozen(nil)) {
				t.Fatal("live error model drifted from a rebuild on the model's store")
			}
		})
	}
}
