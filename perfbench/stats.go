package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for the percentile to be supported by the sample (Kalibera & Jones,
// ISMM 2013: a tail figure resting on fewer points is noise).
const minBeyond = 10

// rankOf is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie above the nearest-rank
// percentile p of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// supports reports whether n samples support percentile p under the
// ≥minBeyond rule.
func supports(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// samplesFor returns the smallest sample count that supports p.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for !supports(n, p) {
		n++
	}
	return n
}

// highestSupported returns the highest percentile, in steps of 0.1,
// that n samples support, or 0 when even the median is unsupported.
func highestSupported(n int) float64 {
	best := 0.0
	for t := 500; t <= 999; t++ {
		p := float64(t) / 10
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs (any order).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
