package main

import "testing"

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},  // overlaps a
		{Name: "c", Parent: 0, StartNS: 80, EndNS: 120}, // runs past its parent
		{Name: "d", Parent: 1, StartNS: 15, EndNS: 25},  // grandchild: a's, not op's
		{Name: "e", Parent: 0, StartNS: 35, EndNS: 50},  // inside a ∪ b
	}
	got := selfTimes(spans)
	// op: 100 − |[10,60] ∪ [80,100]| = 100 − 70.
	want := []int64{30, 20, 30, 40, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeCountsAndMedians(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 4e6},
		{Name: "x", Parent: 0, StartNS: 0, EndNS: 1e6},
		{Name: "op", Parent: -1, StartNS: 5e6, EndNS: 8e6},
		{Name: "x", Parent: 2, StartNS: 5e6, EndNS: 8e6},
	}
	st := summarize(spans)
	if st["x"].Calls != 2 || st["x"].P50MS != 2 || st["op"].SelfS != 3e-3 {
		t.Fatalf("summary = %+v", st)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, -1, "op")
	tr.end(id)
	tr.add("n", 1)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
