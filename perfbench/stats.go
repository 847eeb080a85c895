package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentiles are the tail ranks tried, highest first.
var tailPercentiles = []float64{99, 98, 95, 90, 75, 50}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// summary is a timing distribution reduced to its median and the highest
// of tailPercentiles that has at least minBeyond samples beyond it.
type summary struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: s[rank(50, len(s))]}
	for _, p := range tailPercentiles {
		if i := rank(p, len(s)); len(s)-1-i >= minBeyond || p == 50 {
			out.tail, out.tailPct = s[i], p
			break
		}
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).p50 }
