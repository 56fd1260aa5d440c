// Package metrics provides the repository's one histogram type: lock-free,
// log-bucketed, recorded into by the experiment harness (p50/p99 latencies
// of Figs 10, 11, 13 and the CDFs of Fig 14a), the engine and WAL, and the
// server's op loop, and exported by the obs registry.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram records values — nanoseconds for durations, raw units
// otherwise — in logarithmic buckets (HdrHistogram-style: ~4% relative
// error). Recording is lock-free and allocation-free: a bucket increment,
// a count/sum update on one of histShards cache-line-padded shards, and two
// bounded CAS loops for min/max, so any number of goroutines may record into
// one histogram. Reads see a live histogram to within in-flight records;
// Snapshot freezes a copy. Every method is nil-receiver-safe, so an
// optional instrument needs no guard at its recording site.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	shards  [histShards]histShard
}

// histShards spreads count/sum/min/max across cache lines so concurrent
// recorders don't serialize on one line. Power of two; the shard is picked
// from the observation's bucket index, so values of different magnitudes
// land on different lines for free and recording needs no per-goroutine
// state.
const histShards = 4

// pad is the cache-line padding unit: 128 covers the spatial-prefetcher
// pair-of-lines granularity on current x86.
const pad = 128

type histShard struct {
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64
	max   atomic.Int64
	_     [pad - 4*8]byte
}

// bucketCount covers 1ns..~18s with 16 sub-buckets per power of two.
const (
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits
	bucketCount   = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	for i := range h.shards {
		h.shards[i].min.Store(math.MaxInt64)
	}
	return h
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

// NumBuckets is the number of log buckets a Histogram carries, exported
// for consumers that unpack CDF/CumulativeBuckets into per-bucket counts.
const NumBuckets = bucketCount

// BucketIndex maps a value (nanoseconds for durations, raw units otherwise)
// to its log bucket, 0 ≤ idx < NumBuckets.
func BucketIndex(v int64) int { return bucketIndex(v) }

// BucketBound returns bucket idx's lower bound — the representative value
// Quantile and CDF report for observations in that bucket.
func BucketBound(idx int) int64 { return bucketValue(idx) }

// Observe records one raw value; negative values count as 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.buckets[idx].Add(1)
	sh := &h.shards[idx&(histShards-1)]
	sh.count.Add(1)
	sh.sum.Add(v)
	lower(&sh.min, v)
	raise(&sh.max, v)
}

// ObserveBatch records every value of vs, as Observe would one at a time,
// with the shared atomics amortized over the batch: each shard's count, sum,
// min and max take one update per batch, and a run of values in one bucket
// one bucket add. A recorder that buffers its observations (a server
// connection between reply flushes) folds them in with it.
func (h *Histogram) ObserveBatch(vs []int64) {
	if h == nil || len(vs) == 0 {
		return
	}
	var count, sum, lo, hi [histShards]int64
	for i := range lo {
		lo[i], hi[i] = math.MaxInt64, math.MinInt64
	}
	run, runLen := -1, int64(0)
	for _, v := range vs {
		v = max(v, 0)
		idx := bucketIndex(v)
		if idx != run {
			if runLen > 0 {
				h.buckets[run].Add(runLen)
			}
			run, runLen = idx, 0
		}
		runLen++
		i := idx & (histShards - 1)
		count[i]++
		sum[i] += v
		lo[i] = min(lo[i], v)
		hi[i] = max(hi[i], v)
	}
	h.buckets[run].Add(runLen)
	for i := range count {
		if count[i] == 0 {
			continue
		}
		sh := &h.shards[i]
		sh.count.Add(count[i])
		sh.sum.Add(sum[i])
		lower(&sh.min, lo[i])
		raise(&sh.max, hi[i])
	}
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.Observe(int64(d)) }

// lower and raise move an atomic min/max toward v.
func lower(m *atomic.Int64, v int64) {
	for c := m.Load(); v < c && !m.CompareAndSwap(c, v); c = m.Load() {
	}
}

func raise(m *atomic.Int64, v int64) {
	for c := m.Load(); v > c && !m.CompareAndSwap(c, v); c = m.Load() {
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the sum of all observations in nanoseconds/raw units.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.shards {
		n += h.shards[i].sum.Load()
	}
	return n
}

// bounds returns the smallest and largest observation (0, 0 when empty).
func (h *Histogram) bounds() (lo, hi int64) {
	if h.Count() == 0 {
		return 0, 0
	}
	lo = math.MaxInt64
	for i := range h.shards {
		lo = min(lo, h.shards[i].min.Load())
		hi = max(hi, h.shards[i].max.Load())
	}
	return lo, hi
}

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.Sum() / n)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration {
	lo, _ := h.bounds()
	return time.Duration(lo)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	_, hi := h.bounds()
	return time.Duration(hi)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), e.g. 0.5 for the median: the
// lower bound of the bucket holding it, clamped to [Min, Max].
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := min(int64(q*float64(n)), n-1)
	lo, hi := h.bounds()
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			return time.Duration(min(max(bucketValue(i), lo), hi))
		}
	}
	return time.Duration(hi)
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	for i := range other.shards {
		o, sh := &other.shards[i], &h.shards[i]
		sh.count.Add(o.count.Load())
		sh.sum.Add(o.sum.Load())
		lower(&sh.min, o.min.Load())
		raise(&sh.max, o.max.Load())
	}
}

// Snapshot returns a frozen copy of h: its count is the sum of the copied
// buckets, so CDF, CumulativeBuckets and Quantile of the copy agree with
// each other even while h keeps recording.
func (h *Histogram) Snapshot() *Histogram {
	out := NewHistogram()
	if h == nil {
		return out
	}
	var n int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		out.buckets[i].Store(c)
		n += c
	}
	if n == 0 {
		return out
	}
	lo, hi := h.bounds()
	sh := &out.shards[0]
	sh.count.Store(n)
	sh.sum.Store(h.Sum())
	sh.min.Store(lo)
	sh.max.Store(hi)
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns the cumulative distribution over the recorded observations,
// one point per non-empty bucket.
func (h *Histogram) CDF() []CDFPoint {
	n := h.Count()
	if n == 0 {
		return nil
	}
	var out []CDFPoint
	var seen int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		out = append(out, CDFPoint{
			Latency:  time.Duration(bucketValue(i)),
			Fraction: float64(seen) / float64(n),
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
	if h.Count() == 0 {
		return nil
	}
	var out []BucketCount
	var seen int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
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

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}
