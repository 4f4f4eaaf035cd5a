package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 100}, {0.95, 190}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..200 = %v, %v; want %v", c.p*100, got, err, c.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples accepted; needs 200")
	}
	if _, err := percentile(append(xs, 0), 0.95); err != nil {
		t.Fatalf("p95 of 200 samples refused: %v", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted; needs 20")
	}
}
