package main

import (
	"math"
	"sort"
	"time"
)

// hist is a log-bucketed latency histogram: bucket i holds durations in
// [histMin·g^i, histMin·g^(i+1)) with g = 1.002, so a quantile read from it
// is within 0.2% of the exact sample quantile while the recorder stays a
// fixed 40 KiB and allocation-free on the measured path.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histMin     = 20 * time.Nanosecond
	histGrowth  = 1.002
	histBuckets = 11000 // covers 20 ns .. ~72 s
)

var histLogG = math.Log(histGrowth)

func (h *hist) record(d time.Duration) {
	i := 0
	if d > histMin {
		i = int(math.Log(float64(d)/float64(histMin)) / histLogG)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds the rank, in microseconds.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := float64(histMin) * math.Pow(histGrowth, float64(i))
			hi := lo * histGrowth
			frac := (rank - cum) / float64(c)
			return (lo + frac*(hi-lo)) / 1e3
		}
		cum += float64(c)
	}
	return 0
}

// median returns the median of xs (which it sorts in place), 0 when empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
