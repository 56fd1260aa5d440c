package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/workload"
)

// miniSpec is a served workload small enough for a unit test.
func miniSpec(durable bool) spec {
	return spec{
		name: "mini", keys: 4000, theta: 0.99, durable: durable,
		warmupOps: 40 * numConns * pipeDepth, opsPerSecond: 200 * numConns * pipeDepth,
	}
}

func TestKeyMatchesWorkloadKeyOf(t *testing.T) {
	for _, i := range []int{0, 7, 19999, 123456789012} {
		got := appendKey(nil, i)
		if want := workload.KeyOf(i); !bytes.Equal(got, want) {
			t.Errorf("appendKey(%d) = %q, want %q", i, got, want)
		}
		if idx, ok := keyIndex(got); !ok || idx != i {
			t.Errorf("keyIndex(%q) = %d, %v", got, idx, ok)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := appendValue(nil, 4242, 1, 77)
	info, ok := parseValue(v)
	if !ok || info != (valueInfo{idx: 4242, writer: 1, seq: 77}) || len(v) != valueSize {
		t.Fatalf("parseValue = %+v, %v (len %d)", info, ok, len(v))
	}
	var scratch []byte
	if !valueIntact(v, info, &scratch) {
		t.Fatal("an untouched value fails the full compare")
	}
	v[valueSize-1] ^= 1
	if valueIntact(v, info, &scratch) {
		t.Fatal("a flipped bit passes the full compare")
	}
	if _, ok := parseValue(v[:valueSize-1]); ok {
		t.Fatal("a short value parses")
	}
}

// TestEncoderAgainstServer sends the client's encoded requests to the real
// server over loopback, with the no-op engine behind it, and reads the
// replies with the repo's own reply parser.
func TestEncoderAgainstServer(t *testing.T) {
	st := &stack{spec: miniSpec(false)}
	canned := appendValue(nil, 0, preloadWriter, 0)
	if err := st.startServer(nullEngine{val: canned}, prismdb.NewMetricsRegistry()); err != nil {
		t.Fatal(err)
	}
	defer st.stopServing()
	nc, err := net.Dial("tcp", st.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var wire []byte
	wire = appendGet(wire, 17)
	wire = appendSet(wire, 17, 1, 3)
	wire = appendGet(wire, 18)
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for i, wantKind := range []byte{'$', '+', '$'} {
		rep, err := server.ReadReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rep.Kind != wantKind {
			t.Fatalf("reply %d: kind %q (%q), want %q", i, rep.Kind, rep.Str, wantKind)
		}
		if wantKind == '$' && !bytes.Equal(rep.Str, canned) {
			t.Fatalf("reply %d: %d-byte value differs from the engine's", i, len(rep.Str))
		}
		if wantKind == '+' && string(rep.Str) != "OK" {
			t.Fatalf("reply %d: %q", i, rep.Str)
		}
	}
}

func TestClientCheck(t *testing.T) {
	c := &client{id: 1}
	good := appendValue(nil, 5, 1, 9)
	c.check(pending{idx: 5, minSeq: 9}, '$', good)
	c.check(pending{idx: 5, set: true}, '+', []byte("OK"))
	c.check(pending{idx: 5}, '$', appendValue(nil, 5, 0, 1)) // the other connection's write
	if c.failed != 0 {
		t.Fatalf("good replies failed: %s", c.firstFailure)
	}
	for name, bad := range map[string]func(){
		"other key":     func() { c.check(pending{idx: 6}, '$', good) },
		"stale own seq": func() { c.check(pending{idx: 5, minSeq: 10}, '$', good) },
		"null":          func() { c.check(pending{idx: 5}, '$', nil) },
		"error reply":   func() { c.check(pending{idx: 5, set: true}, '-', []byte("READONLY")) },
		"short value":   func() { c.check(pending{idx: 5}, '$', good[:100]) },
		"lost write":    func() { c.check(pending{idx: 5, minSeq: 1}, '$', appendValue(nil, 5, preloadWriter, 0)) },
	} {
		before := c.failed
		bad()
		if c.failed != before+1 {
			t.Errorf("%s: not counted as a failed op", name)
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	h := metrics.NewHistogram()
	for _, d := range []time.Duration{1, 2, 900, 900, 50000} {
		h.Record(d)
	}
	before := unpack(h)
	for _, d := range []time.Duration{900, 70000, 70000} {
		h.Record(d)
	}
	d := unpack(h).sub(before)
	if n := totalCount(d.counts); n != 3 || d.sum != 900+70000+70000 {
		t.Fatalf("delta holds %d observations summing to %d", n, d.sum)
	}
	if got := d.counts[metrics.BucketIndex(900)]; got != 1 {
		t.Errorf("bucket of 900: %d, want 1", got)
	}
	if got := d.counts[metrics.BucketIndex(70000)]; got != 2 {
		t.Errorf("bucket of 70000: %d, want 2", got)
	}
	if got := d.counts[metrics.BucketIndex(1)] + d.counts[metrics.BucketIndex(2)] + d.counts[metrics.BucketIndex(50000)]; got != 0 {
		t.Errorf("observations older than the first snapshot leaked into the delta: %d", got)
	}
}

func TestTailMean(t *testing.T) {
	fast, slow, slower := metrics.BucketIndex(1000), metrics.BucketIndex(100000), metrics.BucketIndex(400000)
	h := hist{counts: make([]int64, metrics.NumBuckets)}
	h.counts[fast], h.counts[slow], h.counts[slower] = 980, 15, 5
	// An exact sum equal to the mid-bucket sum leaves the estimate unscaled.
	h.sum = int64(980*bucketMid(fast) + 15*bucketMid(slow) + 5*bucketMid(slower))
	// The slowest 1% of 1000 is 10 observations: all 5 of the slowest
	// bucket and 5 of the next.
	want := (5*bucketMid(slower) + 5*bucketMid(slow)) / 10
	if got := h.tailMean(0.01); math.Abs(got-want)/want > 1e-6 {
		t.Errorf("tailMean(1%%) = %v, want %v", got, want)
	}
	// Doubling the exact sum doubles the estimate.
	h.sum *= 2
	if got := h.tailMean(0.01); math.Abs(got-2*want)/want > 1e-6 {
		t.Errorf("rescaled tailMean = %v, want %v", got, 2*want)
	}
	if got, want := h.quantile(0.5), bucketMid(fast); got != want {
		t.Errorf("quantile(0.5) = %v, want %v", got, want)
	}
	if got, want := h.quantile(0.99), bucketMid(slow); got != want {
		t.Errorf("quantile(0.99) = %v, want %v", got, want)
	}
	if got := (hist{counts: make([]int64, metrics.NumBuckets)}).tailMean(0.01); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "batch", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a: 20-30 counted once
		{name: "c", start: 90, end: 120, parent: 0}, // clipped to the parent's end
		{name: "leaf", start: 12, end: 18, parent: 1},
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}
	sum := summarize(spans)
	if s := sum["batch"]; s.count != 1 || s.total != 100 || s.selfNs != 50 {
		t.Errorf("summary of batch = %+v", s)
	}
}

// streamHash fingerprints the first n requests of every connection's
// stream: equal seeds must give equal hashes.
func streamHash(s spec, seed int64, n int) uint64 {
	zipf := workload.NewZipfian(s.keys, s.theta, true)
	h := fnv.New64a()
	var b [5]byte
	for c := 0; c < numConns; c++ {
		st := newOpStream(s, zipf, seed, c)
		for i := 0; i < n; i++ {
			o := st.next()
			b[0], b[1], b[2], b[3] = byte(o.idx), byte(o.idx>>8), byte(o.idx>>16), byte(o.idx>>24)
			b[4] = 0
			if o.set {
				b[4] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestStreamHash(t *testing.T) {
	for _, s := range specs {
		a, b, c := streamHash(s, 11, 2000), streamHash(s, 11, 2000), streamHash(s, 12, 2000)
		if a != b {
			t.Errorf("%s: one seed gave two op streams", s.name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave one op stream", s.name)
		}
	}
}

func TestOpCountsDivisible(t *testing.T) {
	const batch = numConns * pipeDepth
	for _, s := range specs {
		if s.warmupOps%batch != 0 && !s.paper {
			t.Errorf("%s: warm-up of %d ops is not whole batches", s.name, s.warmupOps)
		}
		for seconds := 1; seconds <= 60; seconds++ {
			if n := s.measuredOps(seconds); n%batch != 0 || n == 0 {
				t.Errorf("%s: %d measured ops at %d s", s.name, n, seconds)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the harness", i, w.Name, w.Why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: %+v differs from %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s metric %s: bound differs from the harness's %v", kind, g.Name, w.bound)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
	if len(perLayer) != 95 {
		t.Errorf("%d per-layer metrics, want 95", len(perLayer))
	}
}

// TestServedSmoke runs a miniature durable workload through set-up, a timed
// phase and the reopen check.
func TestServedSmoke(t *testing.T) {
	t.Setenv("PRISM_BENCH_SCRATCH", t.TempDir())
	s := miniSpec(true)
	s.setFrac = 0.5
	st, err := setupServed(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ops := s.measuredOps(1)
	ph, err := st.timed(ops)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := st.counts()
	if want := int64(ops + s.warmupOps); attempted != want || failed != 0 {
		t.Fatalf("attempted %d (want %d), failed %d: %s", attempted, want, failed, st.clients[0].firstFailure)
	}
	m := ph.endToEndMetrics()
	for _, d := range endToEnd[1:] {
		if v := m[d.name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.name, v)
		}
	}
	layers := map[string]float64{}
	ph.counterLayers(layers, st.opts)
	if got := layers["core.get_dram_share"] + layers["core.get_nvm_share"] + layers["core.get_flash_share"] + layers["core.get_miss_share"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("tier shares sum to %v", got)
	}
	rec, err := st.reopenAndVerify()
	if err != nil {
		t.Fatal(err)
	}
	if rec.checked != int64(s.keys) || rec.failed != 0 {
		t.Fatalf("reopen: checked %d of %d keys, %d wrong", rec.checked, s.keys, rec.failed)
	}
}

// TestTracedSmoke runs the traced run's passes on a miniature durable
// workload: reference, traced, engine replay, null-engine replay, reopen.
func TestTracedSmoke(t *testing.T) {
	t.Setenv("PRISM_BENCH_SCRATCH", t.TempDir())
	s := miniSpec(true)
	s.setFrac = 0.5
	m := map[string]float64{}
	ops := s.measuredOps(1)
	attempted, failed, spans, err := traceServed(m, s, 2, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, three served passes and the replay on the real engine, one
	// pass on the null engine, and the reopen check.
	if want := int64(s.warmupOps + 4*ops + s.keys); attempted != want || failed != 0 {
		t.Fatalf("attempted %d (want %d), failed %d", attempted, want, failed)
	}
	for _, name := range []string{
		"client.encode_ns", "client.batch_rtt_p50_us", "server.null_engine_ops_per_s",
		"core.get_nvm_ns", "core.put_ns", "core.put_apply_ns", "trace.overhead_ratio", "storage.recovery_ms",
	} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v", name, m[name])
		}
	}
	sum := summarize(spans)
	batches := int64(ops / pipeDepth)
	for _, name := range []string{"client.batch", "client.encode", "client.rtt", "engine.batch", "null.batch", "null.rtt"} {
		if sum[name].count != batches {
			t.Errorf("%d %s spans, want %d", sum[name].count, name, batches)
		}
	}
	if sum["engine.put.apply"].count == 0 {
		t.Error("no traced put stages in the replay")
	}
}
