package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples; it sorts a copy. Empty input gives NaN.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle sample, or the mean of the two middle ones.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method),
// so a comparison here matches the acceptance arithmetic. It needs at least
// two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
