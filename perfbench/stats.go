package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailLadder are the percentiles a tail may stand for, highest first.
// It stops at p95: beyond it, sub-millisecond latencies on a small
// shared virtual machine mostly measure how often the host deschedules
// its vCPUs (on a 2-vCPU one, the p99 of cache hits varied 2-10x from
// run to run).
var tailLadder = []float64{95, 90, 75, 50}

// tail returns the highest percentile of xs in tailLadder that has at
// least ten samples beyond it, with the percentile it stands for
// (nearest rank). A sample too small for even the median to have ten
// beyond has no tail; its maximum is returned with ok=false, so the
// caller can report the tail as unresolved instead of passing off a
// maximum.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		rank := nearestRank(p, n) // 1-based nearest rank
		if n-rank >= tailBeyond {
			return s[rank-1], p, true
		}
	}
	return s[n-1], 100, false
}

// nearestRank is the 1-based rank of percentile p among n samples,
// tolerant of the rounding in p/100*n.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// slope fits y = a + b*x by least squares and returns b (0 when the xs
// do not vary).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
