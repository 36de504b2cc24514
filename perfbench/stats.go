package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule picks from, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile is the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// samplesFor is the smallest sample count whose tail percentile reaches p.
func samplesFor(p float64) int {
	n := 1
	for tailPercentile(n) < p {
		n++
	}
	return n
}

// percentile is the nearest-rank percentile p of xs, or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is percentile 0.5 of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// interval is a half-open time interval [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered is the length of [lo, hi) that the union of ivs covers. Children
// that overlap each other — repair spans running on parallel workers — are
// counted once.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}
