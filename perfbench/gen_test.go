package main

import (
	"reflect"
	"testing"
	"time"
)

func TestIngestStreamIsAFunctionOfTheSeed(t *testing.T) {
	_, a := (&ingest{seed: 7}).roundHITs(0)
	_, b := (&ingest{seed: 7}).roundHITs(0)
	_, c := (&ingest{seed: 8}).roundHITs(0)
	if len(a) != ingestProjects*ingestRows*ingestPerCell {
		t.Fatalf("%d HITs, want one per project, row and answer", len(a))
	}
	for _, h := range a {
		if len(h.Answers) != ingestCols {
			t.Fatalf("HIT of %d answers, want one per column", len(h.Answers))
		}
		for _, x := range h.Answers[1:] {
			if x.Worker != h.Answers[0].Worker || x.Row != h.Answers[0].Row {
				t.Fatal("HIT mixes workers or rows")
			}
		}
	}
	if a[0].Project == a[1].Project {
		t.Fatal("HITs not interleaved across projects")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different HIT streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same HIT stream")
	}
}

func TestCrowdLoopTablesAreAFunctionOfTheSeed(t *testing.T) {
	_, a := (&crowdLoop{seed: 5}).project(2)
	_, b := (&crowdLoop{seed: 5}).project(2)
	_, c := (&crowdLoop{seed: 6}).project(2)
	if !reflect.DeepEqual(a.Table.Truth, b.Table.Truth) || !reflect.DeepEqual(a.Workers, b.Workers) {
		t.Fatal("same seed gave different crowd-loop datasets")
	}
	if reflect.DeepEqual(a.Table.Truth, c.Table.Truth) {
		t.Fatal("different seeds gave the same crowd-loop dataset")
	}
}

func TestFreshCoversFromTheAck(t *testing.T) {
	t0 := time.Unix(0, 0)
	events := []genEvent{{gen: 1, seen: 25, at: t0.Add(5 * time.Millisecond)}, {gen: 2, seen: 60, at: t0.Add(40 * time.Millisecond)}}
	acks := []ack{{pos: 12, at: t0}, {pos: 30, at: t0.Add(10 * time.Millisecond)}, {pos: 61, at: t0}}
	got := freshMs(acks, events)
	if want := []float64{5, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh %v, want %v (uncovered ack skipped)", got, want)
	}
}
