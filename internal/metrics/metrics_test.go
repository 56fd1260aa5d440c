package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

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

// plainHistogram is the single-goroutine recorder Histogram replaced: plain
// int64 fields, no atomics. It stays as the reference the lock-free type must
// agree with bucket for bucket.
type plainHistogram struct {
	buckets              [bucketCount]int64
	count, sum, min, max int64
}

func newPlainHistogram() *plainHistogram { return &plainHistogram{min: math.MaxInt64} }

func (h *plainHistogram) Record(d time.Duration) {
	v := max(int64(d), 0)
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *plainHistogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := min(int64(q*float64(h.count)), h.count-1)
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			return time.Duration(max(min(bucketValue(i), h.max), h.min))
		}
	}
	return time.Duration(h.max)
}

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	q := h.Quantile(0.5)
	if q != 100*time.Microsecond {
		t.Fatalf("p50 = %v (clamped to min/max)", q)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	s := &Sample{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		// Log-uniform from 1µs to ~100ms.
		v := time.Duration(float64(time.Microsecond) * float64(uint64(1)<<uint(rng.Intn(17))) * (1 + rng.Float64()))
		h.Record(v)
		s.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := float64(h.Quantile(q))
		want := float64(s.Quantile(q))
		ratio := got / want
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("q=%.2f: histogram %v vs exact %v (ratio %.3f)",
				q, h.Quantile(q), s.Quantile(q), ratio)
		}
	}
}

func TestNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * time.Second)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative record: count=%d min=%v", h.Count(), h.Min())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 101; i <= 200; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Microsecond || a.Max() != 200*time.Microsecond {
		t.Fatalf("merged min=%v max=%v", a.Min(), a.Max())
	}
	p50 := a.Quantile(0.5)
	if p50 < 80*time.Microsecond || p50 > 125*time.Microsecond {
		t.Fatalf("merged p50 = %v, want ≈100µs", p50)
	}
}

func TestCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(rng.Intn(1000000)))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	prev := CDFPoint{}
	for _, p := range cdf {
		if p.Latency < prev.Latency || p.Fraction < prev.Fraction {
			t.Fatalf("CDF not monotone: %+v after %+v", p, prev)
		}
		prev = p
	}
	if last := cdf[len(cdf)-1].Fraction; last != 1.0 {
		t.Fatalf("CDF ends at %f", last)
	}
}

func TestQuickQuantileBounds(t *testing.T) {
	// Property: quantiles are within [min, max] and monotone in q.
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(time.Duration(v))
		}
		last := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			val := h.Quantile(q)
			if val < h.Min() || val > h.Max() || val < last {
				return false
			}
			last = val
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndString(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Microsecond)
	h.Record(20 * time.Microsecond)
	if h.Mean() != 15*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSampleLazySortInvalidation(t *testing.T) {
	s := &Sample{}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sample quantile")
	}
	s.Record(30)
	s.Record(10)
	s.Record(20)
	if got := s.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v, want 10", got)
	}
	if got := s.Quantile(1); got != 30 {
		t.Fatalf("q1 = %v, want 30", got)
	}
	// A Record after a Quantile must invalidate the sorted order.
	s.Record(5)
	if got := s.Quantile(0); got != 5 {
		t.Fatalf("q0 after insert = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 30 {
		t.Fatalf("q1 after insert = %v, want 30", got)
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
}

// shiftLoopBucketIndex is the bucket mapping as it was first written, its
// exponent found by a 64-step shift loop: the reference BucketIndex must keep
// agreeing with, because recorded bucket arrays are compared across builds
// (benchmark/histdelta.go subtracts one scrape's buckets from another's).
func shiftLoopBucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63
	for x := uint64(v); x&(1<<63) == 0; x <<= 1 {
		exp--
	}
	var sub int64
	if exp >= subBucketBits {
		sub = (v >> (exp - subBucketBits)) & (subBuckets - 1)
	} else {
		sub = (v << (subBucketBits - exp)) & (subBuckets - 1)
	}
	if idx := exp*subBuckets + int(sub); idx < bucketCount {
		return idx
	}
	return bucketCount - 1
}

// TestBucketIndexMatchesShiftLoop checks BucketIndex against the reference at
// every power of two and its neighbours — where the exponent changes — at
// every sub-bucket edge of every power, and at the clamped extremes.
func TestBucketIndexMatchesShiftLoop(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		if got, want := BucketIndex(v), shiftLoopBucketIndex(v); got != want {
			t.Fatalf("BucketIndex(%d) = %d, reference %d", v, got, want)
		}
	}
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		check(v)
	}
	for exp := 0; exp < 63; exp++ {
		p := int64(1) << exp
		check(p - 1)
		check(p)
		check(p + 1)
		for sub := int64(1); sub < subBuckets && exp >= subBucketBits; sub++ {
			edge := p + sub<<(exp-subBucketBits)
			check(edge - 1)
			check(edge)
		}
	}
}

// The lock-free histogram must agree with the plain recorder it replaced:
// same count/sum/min/max, same quantiles, live and snapshotted.
func TestHistogramMatchesPlainRecorder(t *testing.T) {
	h, ref := NewHistogram(), newPlainHistogram()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		v := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		h.Record(v)
		ref.Record(v)
	}
	for _, got := range []*Histogram{h, h.Snapshot()} {
		if got.Count() != ref.count || got.Sum() != ref.sum {
			t.Fatalf("count/sum: got %d/%d want %d/%d", got.Count(), got.Sum(), ref.count, ref.sum)
		}
		if got.Min() != time.Duration(ref.min) || got.Max() != time.Duration(ref.max) {
			t.Fatalf("min/max: got %v/%v want %v/%v", got.Min(), got.Max(), ref.min, ref.max)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got.Quantile(q) != ref.Quantile(q) {
				t.Fatalf("q%.2f: got %v want %v", q, got.Quantile(q), ref.Quantile(q))
			}
		}
	}
}

// ObserveBatch is Observe applied to each value in turn: bucket for bucket,
// shard for shard, whatever the batch's size, order or sign mix.
func TestObserveBatchMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	one, batched := NewHistogram(), NewHistogram()
	for round := 0; round < 200; round++ {
		vs := make([]int64, rng.Intn(70))
		for i := range vs {
			switch rng.Intn(4) {
			case 0:
				vs[i] = -rng.Int63n(10) // clamped to 0
			case 1:
				vs[i] = 5000 // a run in one bucket
			default:
				vs[i] = rng.Int63n(1 << 30)
			}
		}
		for _, v := range vs {
			one.Observe(v)
		}
		batched.ObserveBatch(vs)
	}
	for i := range one.buckets {
		if a, b := one.buckets[i].Load(), batched.buckets[i].Load(); a != b {
			t.Fatalf("bucket %d: Observe %d, ObserveBatch %d", i, a, b)
		}
	}
	for i := range one.shards {
		a, b := &one.shards[i], &batched.shards[i]
		if a.count.Load() != b.count.Load() || a.sum.Load() != b.sum.Load() ||
			a.min.Load() != b.min.Load() || a.max.Load() != b.max.Load() {
			t.Fatalf("shard %d differs", i)
		}
	}
	var nilH *Histogram
	nilH.ObserveBatch([]int64{1})
	if n := testing.AllocsPerRun(100, func() { batched.ObserveBatch([]int64{1, 2, 3}) }); n != 0 {
		t.Fatalf("ObserveBatch allocates: %v allocs/op", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 20))
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots and merges must not race or corrupt
		defer close(done)
		for i := 0; i < 100; i++ {
			snap := h.Snapshot()
			if cb, cdf := snap.CumulativeBuckets(), snap.CDF(); len(cb) != len(cdf) {
				t.Errorf("snapshot lists %d cumulative buckets but %d CDF points", len(cb), len(cdf))
			}
			NewHistogram().Merge(h)
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count: got %d want %d", got, goroutines*per)
	}
	if got := h.Snapshot().Count(); got != goroutines*per {
		t.Fatalf("snapshot count: got %d want %d", got, goroutines*per)
	}
}

// Recording must be allocation-free, into a live histogram and a nil one.
func TestRecordZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(123 * time.Microsecond)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("recording allocates: %v allocs/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Record(1) }); n != 0 {
		t.Fatalf("nil histogram record allocates: %v allocs/op", n)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	h.Observe(1)
	h.Merge(NewHistogram())
	NewHistogram().Merge(h)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.CDF() != nil || h.Snapshot().Count() != 0 {
		t.Fatal("nil histogram should be empty")
	}
}
