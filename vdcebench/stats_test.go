package main

import (
	"math"
	"testing"
	"time"
)

func TestTailNeedsElevenSamples(t *testing.T) {
	for n := 0; n <= tailBeyond; n++ {
		xs := make([]float64, n)
		if _, _, ok := tail(xs); ok {
			t.Fatalf("tail of %d samples reported; none has %d samples beyond it", n, tailBeyond)
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n         int
		value     float64
		percentil float64
	}{
		{11, 1, 100.0 / 11}, // only the smallest sample has ten beyond it
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // descending: tail must sort
		}
		v, p, ok := tail(xs)
		if !ok || v != c.value || math.Abs(p-c.percentil) > 1e-9 {
			t.Errorf("n=%d: tail = (%v, p%v, %v), want (%v, p%v)", c.n, v, p, ok, c.value, c.percentil)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpMediansTakeEachOpsMiddlePass(t *testing.T) {
	passes := [][]float64{
		{1, 10, 100},
		{9, 11, 100}, // a slow stretch hits op 0 in this pass
		{2, 12, 300}, // and op 2 in this one
	}
	got := opMedians(passes)
	want := []float64{2, 11, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("opMedians = %v, want %v", got, want)
		}
	}
	if opMedians(nil) != nil {
		t.Fatal("opMedians of no passes is not empty")
	}
}

func TestMorePassesEndsWithinTheRunLength(t *testing.T) {
	s := time.Second
	cases := []struct {
		done, min  int
		elapsed, d time.Duration
		want       bool
	}{
		{0, 1, 0, 30 * s, true},       // nothing run yet
		{2, 3, 60 * s, 30 * s, true},  // the minimum comes first
		{3, 3, 27 * s, 30 * s, false}, // a fourth 9 s pass would end at 36 s
		{3, 3, 21 * s, 30 * s, true},  // a fourth 7 s pass ends at 28 s
		{1, 1, 25 * s, 30 * s, false}, // one long pass fills the run
	}
	for _, c := range cases {
		if got := morePasses(c.done, c.min, c.elapsed, c.d); got != c.want {
			t.Errorf("morePasses(%d, %d, %v, %v) = %v, want %v", c.done, c.min, c.elapsed, c.d, got, c.want)
		}
	}
}
