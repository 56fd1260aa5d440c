// Package metrics provides log-bucketed latency histograms and counters for
// the experiment harness: p50/p99 latencies (Figs 10, 11, 13), full CDFs
// (Fig 14a), and throughput accounting.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram records durations in logarithmic buckets (HdrHistogram-style:
// ~4% relative error), cheap enough to sit on the critical path of a
// simulated worker.
type Histogram struct {
	buckets []int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// bucketCount covers 1ns..~18s with 16 sub-buckets per power of two.
const (
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits
	bucketCount   = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]int64, bucketCount), min: math.MaxInt64}
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := bits.Len64(uint64(v)) - 1
	var sub int64
	if exp >= subBucketBits {
		sub = (v >> (exp - subBucketBits)) & (subBuckets - 1)
	} else {
		sub = (v << (subBucketBits - exp)) & (subBuckets - 1)
	}
	idx := exp*subBuckets + int(sub)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketValue returns a representative value for bucket idx (its lower bound).
func bucketValue(idx int) int64 {
	exp := idx / subBuckets
	sub := int64(idx % subBuckets)
	if exp >= subBucketBits {
		return (1 << exp) + (sub << (exp - subBucketBits))
	}
	return (1 << exp) + (sub >> (subBucketBits - exp))
}

// NumBuckets is the number of log buckets a Histogram carries. Exported so
// lock-free recorders (internal/obs) can accumulate per-bucket counts in
// atomic arrays with the same geometry and fold them back via FromBuckets.
const NumBuckets = bucketCount

// BucketIndex maps a value (nanoseconds for durations, raw units otherwise)
// to its log bucket, 0 ≤ idx < NumBuckets.
func BucketIndex(v int64) int { return bucketIndex(v) }

// BucketBound returns bucket idx's lower bound — the representative value
// Quantile and CDF report for observations in that bucket.
func BucketBound(idx int) int64 { return bucketValue(idx) }

// FromBuckets builds a Histogram from externally accumulated per-bucket
// counts (len must be NumBuckets, indexed by BucketIndex) plus the exact
// sum/min/max tracked alongside them. The counts are copied.
func FromBuckets(counts []int64, sum, min, max int64) *Histogram {
	if len(counts) != bucketCount {
		panic("metrics: FromBuckets counts length mismatch")
	}
	h := NewHistogram()
	var n int64
	for i, c := range counts {
		h.buckets[i] = c
		n += c
	}
	h.count = n
	h.sum = sum
	if n > 0 {
		h.min = min
		h.max = max
	}
	return h
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), e.g. 0.5 for the median.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns the cumulative distribution over the recorded observations,
// one point per non-empty bucket.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	var out []CDFPoint
	var seen int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		seen += c
		out = append(out, CDFPoint{
			Latency:  time.Duration(bucketValue(i)),
			Fraction: float64(seen) / float64(h.count),
		})
	}
	return out
}

// BucketCount is one non-empty bucket of a cumulative distribution: the
// bucket's upper bound and the count of observations ≤ it.
type BucketCount struct {
	Bound int64
	Cum   int64
}

// CumulativeBuckets returns (upper bound, cumulative count) pairs, one per
// non-empty bucket — the shape Prometheus histogram exposition wants.
func (h *Histogram) CumulativeBuckets() []BucketCount {
	if h.count == 0 {
		return nil
	}
	var out []BucketCount
	var seen int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		seen += c
		bound := bucketValue(i)
		if i+1 < bucketCount {
			bound = bucketValue(i + 1) // upper edge: next bucket's lower bound
		}
		out = append(out, BucketCount{Bound: bound, Cum: seen})
	}
	return out
}

// Sum returns the sum of all observations in nanoseconds/raw units.
func (h *Histogram) Sum() int64 { return h.sum }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Sample keeps raw values for small exact distributions (used in tests to
// validate Histogram accuracy). Values are sorted lazily: the first
// Quantile after a Record sorts in place, and subsequent Quantiles are
// O(1), instead of re-copying and re-sorting every call.
type Sample struct {
	vals   []time.Duration
	sorted bool
}

// Record adds an observation, invalidating the sorted order.
func (s *Sample) Record(d time.Duration) {
	s.vals = append(s.vals, d)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Quantile returns the exact q-quantile.
func (s *Sample) Quantile(q float64) time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.vals, func(i, j int) bool { return s.vals[i] < s.vals[j] })
		s.sorted = true
	}
	idx := int(q * float64(len(s.vals)))
	if idx >= len(s.vals) {
		idx = len(s.vals) - 1
	}
	return s.vals[idx]
}
