package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of ds by the
// nearest-rank method; ds is sorted in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ds[k]
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs into four groups by the
// "exclusive" method, the default of Python's statistics.quantiles(n=4).
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4 // may fall outside 0..4: Python extrapolates too
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
