package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// a p99 over 200 samples rests on two values and is noise, so the helpers
// lower the percentile until ten samples back it.
const minTail = 10

// tailRank returns the 0-based nearest-rank index of the want-th
// percentile of n sorted samples, lowered to the highest rank that still
// has at least minTail samples beyond it. With too few samples for any
// such rank it falls back to the median. The second result is the
// percentile actually reported.
func tailRank(n int, want float64) (int, float64) {
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(want/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if limit := n - 1 - minTail; i > limit {
		i = limit
		if i < 0 {
			i = (n - 1) / 2
		}
	}
	return i, 100 * float64(i+1) / float64(n)
}

// percentile is tailRank over raw samples; xs need not be sorted.
func percentile(xs []float64, want float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i, p := tailRank(len(s), want)
	return s[i], p
}

// median is the middle value (mean of the middle two), 0 for no samples.
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

// histSub is the number of buckets per power of two: values are kept to
// within 1/histSub (about 3%) of their true size.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
)

// hist is a log-linear histogram of non-negative durations in
// nanoseconds. The hot seams (every step, every Handle) record into one
// instead of keeping millions of raw samples.
type hist struct {
	counts [histSub * (65 - histSubBits)]uint64
	n      int64
}

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return histSub*(shift+1) + int(v>>shift) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	lo := int64(i%histSub+histSub) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile follows the same rank rule as the raw-sample helper.
func (h *hist) percentile(want float64) (float64, float64) {
	if h.n == 0 {
		return 0, 0
	}
	i, p := tailRank(int(h.n), want)
	seen := int64(0)
	for b, c := range h.counts {
		seen += int64(c)
		if seen > int64(i) {
			return histValue(b), p
		}
	}
	return histValue(len(h.counts) - 1), p
}
