package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one slow op, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// at least minBeyond samples lie strictly beyond its rank. samples need
// not be sorted; it is not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], n-1-rank >= minBeyond
}

// minSamples is the fewest latency samples a run reports from: the
// smallest count at which p95 has minBeyond samples beyond it.
const minSamples = 200

// median is the 0.5 nearest-rank percentile, which always has enough
// samples beyond it once there are 2*minBeyond+1.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) and statistics.median give them
// (the "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return s[0], med, s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
