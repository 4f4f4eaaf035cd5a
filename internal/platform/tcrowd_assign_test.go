package platform

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tcrowd/internal/metrics"
	"tcrowd/internal/reputation"
	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// runSpamLoop drives one reputation-enabled project through a closed
// tasks -> answer loop until every cell holds three answers on average:
// workers arrive in the crowd's order, request a row's worth of tasks,
// answer them with the crowd's persona behaviour (work times included) and
// submit one batch. As in the paper's online protocol, the model refreshes
// after every arrival: RefreshEvery is out of reach and a strongly
// consistent read follows each submission, so the publish points — and so
// the whole run — do not depend on scheduling.
// Quarantined workers must get an empty task list, banned ones
// ErrWorkerBanned. Returns the final categorical accuracy.
func runSpamLoop(t *testing.T, ds *simulate.Dataset, seed int64, tcrowd bool) float64 {
	t.Helper()
	p := NewWithOptions(seed, Options{Workers: 1})
	defer p.Close()
	const id = "spam-loop"
	if _, err := p.CreateProject(id, ds.Table.Schema, ProjectConfig{
		Rows:                ds.Table.NumRows(),
		UseTCrowdAssignment: tcrowd,
		Reputation:          true,
		RefreshEvery:        1 << 30,
	}); err != nil {
		t.Fatal(err)
	}
	proj, _ := p.Project(id)
	crowd := simulate.NewCrowd(ds, seed)
	budget := 3 * ds.Table.NumCells()
	k := ds.Table.NumCols()
	answers := 0
	for _, wi := range crowd.ArrivalOrder(budget) {
		if answers >= budget {
			break
		}
		w := &ds.Workers[wi]
		quarantined := proj.rep.State(w.ID) == reputation.Quarantined
		tasks, err := p.RequestTasks(id, w.ID, k)
		switch {
		case errors.Is(err, ErrWorkerBanned):
			continue
		case err != nil:
			t.Fatal(err)
		case quarantined:
			if tasks == nil || len(tasks) != 0 {
				t.Fatalf("quarantined worker %s served %v", w.ID, tasks)
			}
			continue
		}
		batch := make([]tabular.Answer, 0, len(tasks))
		meta := make([]AnswerMeta, 0, len(tasks))
		for _, task := range tasks {
			a, ms := crowd.AnswerMeta(w, tabular.Cell{Row: task.Row, Col: ds.Table.Schema.ColumnIndex(task.Column)})
			batch = append(batch, a)
			meta = append(meta, AnswerMeta{WorkTimeMs: ms})
		}
		if len(batch) == 0 {
			continue
		}
		if _, err := p.SubmitBatch(id, batch, meta); err != nil {
			t.Fatal(err)
		}
		answers += len(batch)
		if _, err := p.RunInference(id); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.RunInference(id)
	if err != nil {
		t.Fatal(err)
	}
	if tcrowd {
		assertQuarantineGatesTCrowd(t, p, ds)
	}
	p.mu.Lock()
	rep := metrics.Evaluate(ds.Table, res.Estimates, proj.Log)
	p.mu.Unlock()
	return 1 - rep.ErrorRate
}

// assertQuarantineGatesTCrowd puts an honest worker who is being served
// T-Crowd tasks into quarantine and checks the T-Crowd path then serves
// them an empty task list.
func assertQuarantineGatesTCrowd(t *testing.T, p *Platform, ds *simulate.Dataset) {
	t.Helper()
	proj, _ := p.Project("spam-loop")
	if proj.tasksView.Load() == nil {
		t.Fatal("no published T-Crowd view after the loop")
	}
	for _, w := range ds.Workers {
		if w.Persona != simulate.Honest || proj.rep.State(w.ID) != reputation.Active {
			continue
		}
		if tasks, err := p.RequestTasks("spam-loop", w.ID, 2); err != nil || len(tasks) == 0 {
			continue // answered everything; try another worker
		}
		snap := proj.rep.SnapshotOf(w.ID)
		snap.State = reputation.Quarantined
		proj.rep.Restore([]reputation.WorkerSnapshot{snap})
		tasks, err := p.RequestTasks("spam-loop", w.ID, 2)
		if err != nil || tasks == nil || len(tasks) != 0 {
			t.Fatalf("quarantined worker %s: tasks %v, err %v; want an empty list", w.ID, tasks, err)
		}
		return
	}
	t.Fatal("no active honest worker with open tasks to quarantine")
}

// TestTCrowdAssignmentWithReputationUnderSpam runs reputation and T-Crowd
// assignment together: with spam personas (half random junk, half
// coordinated deceivers) at 10% and 30% of the crowd, structure-aware
// assignment on the published, reputation-weighted model must end no
// less accurate than fewest-answers-first on the same crowds and seeds
// (mean over three crowds: one table's 60 categorical cells move the
// accuracy in steps of 1.7 points), and quarantined workers get no T-Crowd
// tasks.
func TestTCrowdAssignmentWithReputationUnderSpam(t *testing.T) {
	for _, spam := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("spam-%.0f%%", spam*100), func(t *testing.T) {
			t.Parallel()
			var fewest, tc float64
			for seed := int64(1); seed <= 3; seed++ {
				ds := simulate.Generate(stats.NewRNG(40+seed), simulate.TableConfig{
					Rows: 30, Cols: 4, CatRatio: 0.5,
					Population: simulate.PopulationConfig{
						N:            12,
						JunkFrac:     spam / 2,
						DeceiverFrac: spam / 2,
					},
				})
				fewest += runSpamLoop(t, ds, 100+seed, false) / 3
				tc += runSpamLoop(t, ds, 100+seed, true) / 3
			}
			t.Logf("mean accuracy: fewest-answers-first %.3f, T-Crowd %.3f", fewest, tc)
			if tc < fewest {
				t.Fatalf("T-Crowd assignment accuracy %.3f below fewest-answers-first %.3f", tc, fewest)
			}
		})
	}
}

// TestRequestTasksConcurrentWithSubmitsAndRefreshes races T-Crowd task
// requests against submissions and the refreshes and publishes they
// trigger (run it under -race). Every worker runs a closed tasks -> answer
// loop, so a task list must never hold a cell its worker already
// answered: a rejected batch would mean the view was scored against the
// wrong log.
func TestRequestTasksConcurrentWithSubmitsAndRefreshes(t *testing.T) {
	p := NewWithOptions(71, Options{Workers: 2})
	defer p.Close()
	const id = "race"
	if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{
		Rows: 12, UseTCrowdAssignment: true, Reputation: true, RefreshEvery: 3,
	}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	var submitters, readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for r := 0; r < 6; r++ {
				u := tabular.WorkerID(fmt.Sprintf("g%d-w%d", g, r))
				for {
					tasks, err := p.RequestTasks(id, u, 2)
					if err != nil {
						errs <- err
						return
					}
					if len(tasks) == 0 {
						break
					}
					// Everyone agrees, so reputation never gates a worker.
					batch := make([]tabular.Answer, len(tasks))
					meta := make([]AnswerMeta, len(tasks))
					for i, task := range tasks {
						v := tabular.LabelValue(task.Row % 3)
						if task.Column == "price" {
							v = tabular.NumberValue(float64(10 * task.Row))
						}
						batch[i] = tabular.Answer{Worker: u, Cell: tabular.Cell{Row: task.Row, Col: demoSchema().ColumnIndex(task.Column)}, Value: v}
						meta[i] = AnswerMeta{WorkTimeMs: 2000}
					}
					if _, err := p.SubmitBatch(id, batch, meta); err != nil {
						errs <- fmt.Errorf("worker %s: %w", u, err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := p.RequestTasks(id, tabular.WorkerID(fmt.Sprintf("reader-%d", g)), 3); err != nil {
					errs <- err
					return
				}
				_, _ = p.Snapshot(id)
			}
		}()
	}
	submitters.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := p.RunInference(id)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := p.Stats(id); res.AnswersSeen != st.Answers || st.Answers != 4*6*st.Cells {
		t.Fatalf("final read saw %d answers, log holds %d, want %d", res.AnswersSeen, st.Answers, 4*6*st.Cells)
	}
}

// TestTasksViewCatchesUpBetweenPublishes pins the catch-up of the
// published view: answers recorded after a generation sharpen the cells
// they answer before the next refresh, so the cell every worker was being
// handed stops being the top pick once it has collected answers.
func TestTasksViewCatchesUpBetweenPublishes(t *testing.T) {
	p := New(72)
	defer p.Close()
	const id = "catch-up"
	if _, err := p.CreateProject(id, demoSchema(), ProjectConfig{Rows: 6, UseTCrowdAssignment: true, RefreshEvery: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	var seed []tabular.Answer
	for r := 0; r < 6; r++ {
		seed = append(seed, tabular.Answer{Worker: "s1", Cell: tabular.Cell{Row: r, Col: 0}, Value: tabular.LabelValue(r % 3)})
		seed = append(seed, tabular.Answer{Worker: "s2", Cell: tabular.Cell{Row: r, Col: 1}, Value: tabular.NumberValue(float64(10 * r))})
	}
	if _, err := p.SubmitBatch(id, seed, nil); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunInference(id)
	if err != nil {
		t.Fatal(err)
	}
	top := func(u tabular.WorkerID) Task {
		tasks, err := p.RequestTasks(id, u, 1)
		if err != nil || len(tasks) != 1 {
			t.Fatalf("tasks for %s: %v %v", u, tasks, err)
		}
		return tasks[0]
	}
	first := top("probe-1")
	col := demoSchema().ColumnIndex(first.Column)
	for i := 0; i < 6; i++ {
		v := tabular.LabelValue(first.Row % 3)
		if first.Column == "price" {
			v = tabular.NumberValue(float64(10 * first.Row))
		}
		a := tabular.Answer{Worker: tabular.WorkerID(fmt.Sprintf("c%d", i)), Cell: tabular.Cell{Row: first.Row, Col: col}, Value: v}
		if _, err := p.SubmitBatch(id, []tabular.Answer{a}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if snap, _ := p.Snapshot(id); snap.Generation != res.Generation {
		t.Fatalf("a refresh ran (generation %d -> %d): the test needs a stale view", res.Generation, snap.Generation)
	}
	if next := top("probe-2"); next.Row == first.Row && next.Column == first.Column {
		t.Fatalf("cell (%d, %s) is still the top pick after collecting 6 answers", first.Row, first.Column)
	}
}
