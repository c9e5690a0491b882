package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail: the
// tail is the highest percentile that still has this many samples above it.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for an even
// count) and NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the "exclusive" method
// of Python's statistics.quantiles(data, n=4), transcribed step for step
// (including its extrapolation at small counts), so the spreads computed
// here are the ones an acceptance check computes in Python. With fewer
// than two samples every cut point is the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		cut[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tail returns the highest-percentile sample that has at least tailBeyond
// samples strictly above it in rank, and that percentile (rank / n × 100).
// ok is false below tailBeyond+1 samples: no such sample exists.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, false
	}
	s := sorted(xs)
	rank := n - tailBeyond // 1-based rank of the tail sample
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// mean returns the arithmetic mean of xs and NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// opMedians returns each op's median time over the passes of a pass plan:
// passes[k][i] is op i's time in pass k, and every pass runs the same ops
// in the same order. A slow stretch of the machine lands on one pass of an
// op, not on its median, so the medians hold still where the raw samples
// do not.
func opMedians(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for k, pass := range passes {
			col[k] = pass[i]
		}
		out[i] = median(col)
	}
	return out
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
