package main

import (
	"math"

	"github.com/prismdb/prismdb/internal/metrics"
)

// hist is a histogram unpacked into one count per log bucket (indexed like
// metrics.BucketIndex) plus the exact sum of the recorded values.
type hist struct {
	counts []int64
	sum    int64
}

// unpack reads a histogram's buckets and sum. A nil histogram is empty.
func unpack(h *metrics.Histogram) hist {
	out := hist{counts: make([]int64, metrics.NumBuckets)}
	if h == nil {
		return out
	}
	out.sum = h.Sum()
	// CDF and CumulativeBuckets both list the non-empty buckets in order:
	// the first names each bucket by its lower bound, which maps back to
	// its index, and the second carries the exact cumulative count.
	var seen int64
	cum := h.CumulativeBuckets()
	for k, p := range h.CDF() {
		out.counts[metrics.BucketIndex(int64(p.Latency))] = cum[k].Cum - seen
		seen = cum[k].Cum
	}
	return out
}

// sub is h − before: the observations recorded between two snapshots of one
// cumulative histogram.
func (h hist) sub(before hist) hist {
	d := hist{counts: make([]int64, len(h.counts)), sum: h.sum - before.sum}
	for i := range h.counts {
		d.counts[i] = h.counts[i] - before.counts[i]
	}
	return d
}

// bucketMid is the value a bucket's observations are taken to have: the
// middle of its range.
func bucketMid(idx int) float64 {
	lo := metrics.BucketBound(idx)
	hi := lo
	if idx+1 < metrics.NumBuckets {
		hi = metrics.BucketBound(idx + 1)
	}
	return float64(lo+hi) / 2
}

func totalCount(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// tailMean is the mean of the slowest frac of the observations. Unlike a
// single percentile it integrates over the whole tail, so it moves smoothly
// when a few observations cross a bucket edge. Buckets are ~4% wide and
// their contents are taken to sit mid-bucket; the estimate is rescaled by
// the ratio of the exact recorded mean to the mid-bucket mean, which
// removes that discretisation to first order.
func (h hist) tailMean(frac float64) float64 {
	n := totalCount(h.counts)
	if n == 0 {
		return 0
	}
	want := int64(math.Ceil(float64(n) * frac))
	if want < 1 {
		want = 1
	}
	left, tail, all := want, 0.0, 0.0
	for i := len(h.counts) - 1; i >= 0; i-- {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		mid := bucketMid(i)
		all += float64(c) * mid
		if c > left {
			c = left
		}
		tail += float64(c) * mid
		left -= c
	}
	return tail / float64(want) * float64(h.sum) / all
}

// quantile is the mid value of the bucket holding the q-th quantile.
func (h hist) quantile(q float64) float64 {
	counts := h.counts
	n := totalCount(counts)
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(n) * q))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(counts) - 1)
}
