package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p95 needs 200 samples, p50 needs 20. A tail figure resting on fewer is
// one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, int(math.Ceil(minBeyond/(1-p)-1e-9)), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	return s[max(rank, 0)], nil
}

// median is percentile(xs, 0.5) without the sample floor, for the few
// repeated set-up and replay timings.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
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
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
