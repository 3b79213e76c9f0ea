package main

import (
	"math"
	"sort"
)

// minTail is how many samples a reported percentile must leave beyond
// it before the sample supports it.
const minTail = 10

// dist is a sorted sample of one timing.
type dist struct{ xs []float64 }

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{s}
}

// n is the sample count.
func (d dist) n() int { return len(d.xs) }

// q returns the nearest-rank q-quantile (q in [0, 1]); 0 when empty.
func (d dist) q(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(d.xs))))
	if r < 1 {
		r = 1
	}
	if r > len(d.xs) {
		r = len(d.xs)
	}
	return d.xs[r-1]
}

// supported returns the highest quantile that leaves at least minTail
// samples beyond it: n - ceil(q*n) >= minTail. 0 when the sample has
// minTail samples or fewer.
func (d dist) supported() float64 { return supportedAt(len(d.xs)) }

// supportedAt is supported for a sample of n.
func supportedAt(n int) float64 {
	if n <= minTail {
		return 0
	}
	return float64(n-minTail) / float64(n)
}

// median of xs, averaging the middle pair of an even count; 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides guarding an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// chunks cuts xs into n consecutive parts of near-equal length.
func chunks(xs []float64, n int) [][]float64 {
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[len(xs)*i/n:len(xs)*(i+1)/n])
	}
	return out
}
