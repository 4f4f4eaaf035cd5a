package platform

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tcrowd/internal/tabular"
)

// TestConcurrentWorkers hammers one project from many goroutines — the
// platform's advertised thread-safety. Run with -race to make it bite.
func TestConcurrentWorkers(t *testing.T) {
	p := New(55)
	if _, err := p.CreateProject("conc", demoSchema(), ProjectConfig{Rows: 30}); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*20)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := tabular.WorkerID(fmt.Sprintf("w%02d", w))
			for round := 0; round < 5; round++ {
				tasks, err := p.RequestTasks("conc", id, 2)
				if err != nil {
					errs <- err
					return
				}
				for _, task := range tasks {
					var v tabular.Value
					if task.Type == "categorical" {
						v = tabular.LabelValue(w % 3)
					} else {
						v = tabular.NumberValue(float64(10*w + round))
					}
					a := tabular.Answer{Worker: id, Cell: tabular.Cell{Row: task.Row, Col: demoSchema().ColumnIndex(task.Column)}, Value: v}
					res, err := p.SubmitBatch("conc", []tabular.Answer{a}, nil)
					if err == nil {
						err = res.RefreshErr
					}
					if err != nil && !errors.Is(err, ErrAlreadyAnswered) {
						errs <- err
						return
					}
				}
				if _, err := p.Stats("conc"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := p.Stats("conc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Answers == 0 || st.Workers != workers {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
	// Inference still works on the concurrently built log.
	if _, err := p.RunInference("conc"); err != nil {
		t.Fatal(err)
	}
}
