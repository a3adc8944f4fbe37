package main

import (
	"reflect"
	"testing"
)

func TestKeepFasterTakesLeastCostPerStep(t *testing.T) {
	e := episode{steps: []int64{10, 20, 30}, ops: 5, wall: 60, cpuNS: 90, allocBytes: 400}
	o := episode{steps: []int64{12, 15, 31}, ops: 5, wall: 58, cpuNS: 95, allocBytes: 390}
	if err := e.keepFaster(o); err != nil {
		t.Fatal(err)
	}
	want := episode{steps: []int64{10, 15, 30}, ops: 5, wall: 58, cpuNS: 90, allocBytes: 390}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("got %+v, want %+v", e, want)
	}
}

func TestKeepFasterRejectsADifferentRun(t *testing.T) {
	e := episode{steps: []int64{10, 20}, ops: 5}
	for _, o := range []episode{
		{steps: []int64{10}, ops: 5},
		{steps: []int64{10, 20}, ops: 6},
	} {
		if err := e.keepFaster(o); err == nil {
			t.Errorf("keepFaster(%+v) accepted a run of another shape", o)
		}
	}
}
