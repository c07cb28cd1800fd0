package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: every power-of-two range of
// values is split into 2^subBits equal buckets, so a bucket is at most
// 1/128 (0.78%) of the values it holds wide. Values below 2^subBits ns get
// one exact bucket each.
const (
	subBits    = 7
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// Hist is a log-linear latency histogram over nanosecond values. It is
// allocated once, before a measuring loop, and Record never allocates or
// grows anything, so the loop measures the program and not the benchmark.
type Hist struct {
	counts [numBuckets]uint64
	n      uint64
}

// NewHist allocates an empty histogram.
func NewHist() *Hist { return new(Hist) }

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)*subBuckets + int(v>>uint(shift)) - subBuckets
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < subBuckets {
		return uint64(i), uint64(i) + 1
	}
	shift := uint(i/subBuckets - 1)
	mant := uint64(i%subBuckets + subBuckets)
	return mant << shift, (mant + 1) << shift
}

// Record adds one value in nanoseconds; negative values count as zero.
func (h *Hist) Record(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds every value recorded in o.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the nearest-rank q-quantile (0 < q < 1) as the midpoint
// of the bucket holding it, in nanoseconds. ok is false unless at least
// minBeyond recorded values lie above that rank: a percentile that rests
// on fewer samples is not reported.
func (h *Hist) Quantile(q float64, minBeyond uint64) (ns float64, ok bool) {
	if h.n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if h.n-rank < minBeyond {
		return 0, false
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			if hi-lo == 1 {
				return float64(lo), true
			}
			return (float64(lo) + float64(hi)) / 2, true
		}
	}
	return 0, false // unreachable: the counts add up to n >= rank
}
