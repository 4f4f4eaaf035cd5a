package assign

import (
	"math"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

func simDataset(seed int64) *simulate.Dataset {
	return simulate.Generate(stats.NewRNG(seed), simulate.TableConfig{
		Rows: 24, Cols: 5, CatRatio: 0.4,
		Population: simulate.PopulationConfig{N: 20, SpammerFrac: 0.1},
	})
}

func TestPoliciesSelectValidCells(t *testing.T) {
	ds := simDataset(81)
	log := simulate.NewCrowd(ds, 82).FixedAssignment(2)
	sys := NewTCrowdSystem(83)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	st := sys.st
	st.Err = BuildErrorModel(sys.Model())
	u := ds.Workers[0].ID
	for _, p := range Policies() {
		cells := p.Select(st, u, 5)
		if len(cells) == 0 {
			t.Fatalf("%s selected nothing", p.Name())
		}
		if len(cells) > 5 {
			t.Fatalf("%s overshot k", p.Name())
		}
		seen := map[tabular.Cell]bool{}
		for _, c := range cells {
			if c.Row < 0 || c.Row >= ds.Table.NumRows() || c.Col < 0 || c.Col >= ds.Table.NumCols() {
				t.Fatalf("%s selected out-of-table cell %v", p.Name(), c)
			}
			if seen[c] {
				t.Fatalf("%s selected %v twice", p.Name(), c)
			}
			seen[c] = true
			if log.HasAnswered(u, c) {
				t.Fatalf("%s re-assigned an answered cell", p.Name())
			}
		}
	}
}

func TestLoopingCursorAdvances(t *testing.T) {
	ds := simDataset(91)
	log := simulate.NewCrowd(ds, 92).FixedAssignment(1)
	sys := NewTCrowdSystem(93)
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	lp := &Looping{}
	a := lp.Select(sys.st, "u-x", 3)
	b := lp.Select(sys.st, "u-x", 3)
	if a[0] == b[0] {
		t.Fatal("looping cursor did not advance")
	}
}

func TestEntropyPolicyPrefersUncertainCells(t *testing.T) {
	ds := simDataset(101)
	crowd := simulate.NewCrowd(ds, 102)
	log := crowd.FixedAssignment(1)
	// Give one categorical cell a pile of unanimous extra answers: its
	// entropy collapses, so Entropy must not choose it.
	var catCell tabular.Cell
	for j, col := range ds.Table.Schema.Columns {
		if col.Type == tabular.Categorical {
			catCell = tabular.Cell{Row: 0, Col: j}
			break
		}
	}
	truth := ds.Table.TruthAt(catCell)
	for k := 0; k < 8; k++ {
		w := &ds.Workers[k%len(ds.Workers)]
		if !log.HasAnswered(w.ID, catCell) {
			log.Add(tabular.Answer{Worker: w.ID, Cell: catCell, Value: truth})
		}
	}
	sys := NewTCrowdSystem(103)
	sys.Policy = Entropy{}
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	picks := sys.Select("fresh-worker", 10, log)
	for _, c := range picks {
		if c == catCell {
			t.Fatal("entropy policy picked the most certain cell")
		}
	}
}

func TestRunOnlineCurveShape(t *testing.T) {
	ds := simDataset(111)
	cfg := SimConfig{EvalAt: []float64{1.5, 2, 2.5, 3}, Seed: 112, RefreshEvery: 4}
	res, err := RunOnline(ds, NewTCrowdSystem(113), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != len(cfg.EvalAt) {
		t.Fatalf("curve has %d points, want %d", len(res.Curve), len(cfg.EvalAt))
	}
	for i, pt := range res.Curve {
		if pt.AnswersPerTask != cfg.EvalAt[i] {
			t.Fatalf("checkpoint %d at %v", i, pt.AnswersPerTask)
		}
		if math.IsNaN(pt.Report.ErrorRate) || math.IsNaN(pt.Report.MNAD) {
			t.Fatalf("missing metrics at checkpoint %v", pt.AnswersPerTask)
		}
	}
	// More answers should not make things dramatically worse end-to-end.
	first, last := res.Curve[0].Report, res.Curve[len(res.Curve)-1].Report
	if last.ErrorRate > first.ErrorRate+0.15 {
		t.Fatalf("error rate rose sharply: %v -> %v", first.ErrorRate, last.ErrorRate)
	}
	if res.TotalAnswers < int(3*float64(ds.Table.NumCells()))-ds.Table.NumCols() {
		t.Fatalf("budget underused: %d answers", res.TotalAnswers)
	}
}

func TestRunOnlineAllSystems(t *testing.T) {
	ds := simDataset(121)
	cfg := SimConfig{EvalAt: []float64{1.5, 2}, Seed: 122, RefreshEvery: 6}
	for _, sys := range Fig2Systems(123) {
		res, err := RunOnline(ds, sys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if len(res.Curve) != 2 {
			t.Fatalf("%s: curve %d points", sys.Name(), len(res.Curve))
		}
	}
}

func TestRunPolicyComparison(t *testing.T) {
	ds := simDataset(131)
	cfg := SimConfig{EvalAt: []float64{1.5, 2}, Seed: 132, RefreshEvery: 6}
	results, err := RunPolicyComparison(ds, []Policy{Random{}, InherentIG{}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].System != "Random" || results[1].System != "Inherent IG" {
		t.Fatalf("results: %+v", results)
	}
}

func TestCDASTerminatesConfidentTasks(t *testing.T) {
	ds := simDataset(141)
	crowd := simulate.NewCrowd(ds, 142)
	log := crowd.FixedAssignment(1)
	var catCell tabular.Cell
	for j, col := range ds.Table.Schema.Columns {
		if col.Type == tabular.Categorical {
			catCell = tabular.Cell{Row: 0, Col: j}
			break
		}
	}
	truth := ds.Table.TruthAt(catCell)
	for k := 0; k < 6; k++ {
		w := &ds.Workers[k%len(ds.Workers)]
		if !log.HasAnswered(w.ID, catCell) {
			log.Add(tabular.Answer{Worker: w.ID, Cell: catCell, Value: truth})
		}
	}
	sys := &CDAS{Seed: 143}
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	if !sys.terminated[catCell] {
		t.Fatal("unanimous cell not terminated")
	}
	for trial := 0; trial < 20; trial++ {
		for _, c := range sys.Select("someone-new", 4, log) {
			if c == catCell {
				t.Fatal("CDAS assigned a terminated task")
			}
		}
	}
}

func TestAskItPrefersContinuousFirst(t *testing.T) {
	// With natural-unit differential entropy, wide continuous domains
	// dominate the uncertainty ranking — the bias Fig. 2 shows.
	ds := simDataset(151)
	log := simulate.NewCrowd(ds, 152).FixedAssignment(1)
	sys := &AskIt{Seed: 153}
	if err := sys.Refresh(ds.Table, log); err != nil {
		t.Fatal(err)
	}
	picks := sys.Select("fresh", 5, log)
	if len(picks) == 0 {
		t.Fatal("no picks")
	}
	for _, c := range picks {
		if ds.Table.Schema.Columns[c.Col].Type != tabular.Continuous {
			t.Fatalf("AskIt picked categorical cell %v first", c)
		}
	}
}

func TestSystemsHandleEmptyLog(t *testing.T) {
	ds := simDataset(161)
	empty := tabular.NewAnswerLog()
	for _, sys := range Fig2Systems(162) {
		if err := sys.Refresh(ds.Table, empty); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		// Selection on an empty log must not panic; T-Crowd returns nil
		// (cold start handled by the simulator's seeding phase).
		_ = sys.Select("u", 3, empty)
	}
}
