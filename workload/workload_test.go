package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfianBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfian(1000, 0.99, false)
	for i := 0; i < 100000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("zipf out of range: %d", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// Unscrambled zipfian: rank 0 must dominate; higher theta more so.
	freq := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(2))
		z := NewZipfian(10000, theta, false)
		hits := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if z.Next(rng) == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	f99 := freq(0.99)
	f60 := freq(0.6)
	if f99 < 0.05 {
		t.Fatalf("theta 0.99: rank-0 frequency %f too low", f99)
	}
	if f99 <= f60 {
		t.Fatalf("skew not increasing with theta: %f vs %f", f99, f60)
	}
}

func TestZipfianScrambledSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipfian(10000, 0.99, true)
	// The hottest scrambled key should NOT be key 0 (hash-spread), and
	// overall skew must be preserved.
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}
	maxKey, maxCnt := -1, 0
	for k, c := range counts {
		if c > maxCnt {
			maxKey, maxCnt = k, c
		}
	}
	if float64(maxCnt)/n < 0.05 {
		t.Fatalf("scrambling destroyed skew: top frequency %f", float64(maxCnt)/n)
	}
	if maxKey == 0 {
		t.Fatal("scrambled zipfian left hottest key at rank 0")
	}
}

func TestUniformCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := NewUniform(100)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[u.Next(rng)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/100) > n/100*0.3 {
			t.Fatalf("uniform key %d count %d deviates >30%%", k, c)
		}
	}
}

func TestLatestPrefersRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	l := NewLatest(n, 0.99, func() int { return n })
	recent := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := l.Next(rng)
		if k < 0 || k >= n {
			t.Fatalf("latest out of range: %d", k)
		}
		if k >= n-100 {
			recent++
		}
	}
	if float64(recent)/draws < 0.5 {
		t.Fatalf("latest distribution not recent-biased: %f in newest 10%%", float64(recent)/draws)
	}
}

func TestKeyOfRoundTrip(t *testing.T) {
	f := func(i uint32) bool {
		return IndexOf(KeyOf(int(i))) == int(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Fixed width ⇒ lexicographic order == numeric order.
	if string(KeyOf(9)) >= string(KeyOf(10)) {
		t.Fatal("key order broken")
	}
}

func TestYCSBMixes(t *testing.T) {
	for _, w := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		cfg, err := YCSB(w, 1000, 100, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		total := cfg.Mix.Read + cfg.Mix.Update + cfg.Mix.Insert + cfg.Mix.Scan + cfg.Mix.RMW
		if math.Abs(total-1.0) > 1e-9 {
			t.Fatalf("YCSB-%c mix sums to %f", w, total)
		}
	}
	if _, err := YCSB('Z', 1000, 100, 0, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Spot-check Table 4 proportions.
	a, _ := YCSB('A', 1, 1, 0, 1)
	if a.Mix.Read != 0.5 || a.Mix.Update != 0.5 {
		t.Fatalf("YCSB-A mix %+v", a.Mix)
	}
	d, _ := YCSB('D', 1, 1, 0, 1)
	if d.Dist != DistLatest || d.Mix.Insert != 0.05 {
		t.Fatalf("YCSB-D config %+v", d)
	}
	e, _ := YCSB('E', 1, 1, 0, 1)
	if e.Mix.Scan != 0.95 {
		t.Fatalf("YCSB-E mix %+v", e.Mix)
	}
}

func TestGeneratorOpFrequencies(t *testing.T) {
	cfg, _ := YCSB('B', 10000, 100, 0, 7)
	g := NewGenerator(cfg)
	counts := map[OpKind]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		op := g.Next()
		counts[op.Kind]++
		if len(op.Key) == 0 {
			t.Fatal("empty key")
		}
	}
	readFrac := float64(counts[OpRead]) / n
	if readFrac < 0.93 || readFrac > 0.97 {
		t.Fatalf("YCSB-B read fraction %f, want ≈0.95", readFrac)
	}
	if counts[OpUpdate] == 0 {
		t.Fatal("no updates generated")
	}
	for i := 0; i < n; i++ {
		if op := g.Next(); op.Kind == OpUpdate && len(op.Value) != 100 {
			t.Fatalf("update value size %d", len(op.Value))
		}
	}
}

func TestGeneratorInsertsGrowKeyspace(t *testing.T) {
	cfg, _ := YCSB('D', 1000, 100, 0, 7)
	g := NewGenerator(cfg)
	maxIdx := 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Kind == OpInsert {
			idx := IndexOf(op.Key)
			if idx < 1000 {
				t.Fatalf("insert reused existing key %d", idx)
			}
			if idx <= maxIdx {
				t.Fatalf("insert keys not monotone: %d after %d", idx, maxIdx)
			}
			maxIdx = idx
		}
	}
	if g.Keys() <= 1000 {
		t.Fatal("keyspace did not grow")
	}
}

func TestScansHaveLengths(t *testing.T) {
	cfg, _ := YCSB('E', 1000, 100, 0, 7)
	g := NewGenerator(cfg)
	sawScan := false
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Kind == OpScan {
			sawScan = true
			if op.ScanLen < 1 || op.ScanLen > 100 {
				t.Fatalf("scan len %d", op.ScanLen)
			}
		}
	}
	if !sawScan {
		t.Fatal("YCSB-E generated no scans")
	}
}

func TestTwitterPresets(t *testing.T) {
	for _, name := range []string{"cluster39", "cluster19", "cluster51"} {
		cfg, err := Twitter(name, 10000, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(cfg)
		reads := 0
		const n = 20000
		var sizeSum int
		sizeCnt := 0
		for i := 0; i < n; i++ {
			op := g.Next()
			if op.Kind == OpRead {
				reads++
			}
			if len(op.Value) > 0 {
				sizeSum += len(op.Value)
				sizeCnt++
			}
		}
		readFrac := float64(reads) / n
		if math.Abs(readFrac-cfg.Mix.Read) > 0.03 {
			t.Fatalf("%s read fraction %f, want %f", name, readFrac, cfg.Mix.Read)
		}
		if sizeCnt > 0 {
			mean := float64(sizeSum) / float64(sizeCnt)
			if math.Abs(mean-float64(cfg.ValueSize)) > float64(cfg.ValueSize)/2 {
				t.Fatalf("%s mean value size %f, want ≈%d", name, mean, cfg.ValueSize)
			}
		}
	}
	if _, err := Twitter("cluster99", 100, 1); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestLoadValuesDeterministic(t *testing.T) {
	cfg, _ := YCSB('A', 100, 64, 0, 42)
	g1 := NewGenerator(cfg)
	g2 := NewGenerator(cfg)
	for i := 0; i < 100; i++ {
		if string(g1.LoadValue(i)) != string(g2.LoadValue(i)) {
			t.Fatal("load values not deterministic")
		}
		if len(g1.LoadValue(i)) != 64 {
			t.Fatalf("load value size %d", len(g1.LoadValue(i)))
		}
	}
}

func TestValueSizeSigma(t *testing.T) {
	cfg, _ := Twitter("cluster19", 1000, 1)
	g := NewGenerator(cfg)
	sizes := map[int]bool{}
	for i := 0; i < 200; i++ {
		if op := g.Next(); op.Kind == OpUpdate {
			sizes[len(op.Value)] = true
		}
	}
	if len(sizes) < 5 {
		t.Fatalf("sigma produced only %d distinct sizes", len(sizes))
	}
}

// Shard queues value seeds, not values; FillValue at dispatch must produce
// exactly the stream Next produces — same kinds, keys and value bytes in the
// same order, with the generator's random draws in the same order — whether
// or not the buffer is reused.
func TestShardFillValueMatchesNext(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "fixed", Keys: 500, Mix: Mix{Read: 0.3, Update: 0.3, Insert: 0.1, Scan: 0.1, RMW: 0.1, Delete: 0.1}, ValueSize: 100, MaxScanLen: 10, Seed: 5},
		{Name: "sigma", Keys: 500, Mix: Mix{Read: 0.5, Update: 0.5}, Dist: DistUniform, ValueSize: 230, ValueSizeSigma: 0.3, Seed: 6},
	} {
		const n, parts = 4000, 3
		route := func(key []byte) int { return int(key[len(key)-1]) % parts }
		ref := NewGenerator(cfg)
		want := make([][]Op, parts)
		for i := 0; i < n; i++ {
			op := ref.Next()
			want[route(op.Key)] = append(want[route(op.Key)], op)
		}
		gen := NewGenerator(cfg)
		queues, err := Shard(gen, n, parts, route)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for pi := range queues {
			if len(queues[pi]) != len(want[pi]) {
				t.Fatalf("%s: queue %d has %d ops, want %d", cfg.Name, pi, len(queues[pi]), len(want[pi]))
			}
			for i, op := range queues[pi] {
				if op.Value != nil {
					t.Fatalf("%s: a sharded op carries a materialised value", cfg.Name)
				}
				buf = gen.FillValue(&op, buf)
				w := want[pi][i]
				if op.Kind != w.Kind || !bytes.Equal(op.Key, w.Key) || op.ScanLen != w.ScanLen || !bytes.Equal(op.Value, w.Value) {
					t.Fatalf("%s: queue %d op %d = %v %q (%d value bytes), want %v %q (%d)",
						cfg.Name, pi, i, op.Kind, op.Key, len(op.Value), w.Kind, w.Key, len(w.Value))
				}
				if (len(w.Value) > 0) != op.Kind.hasValue() {
					t.Fatalf("%s: kind %v carries a value: %v", cfg.Name, op.Kind, len(w.Value) > 0)
				}
			}
		}
		// The generators are in the same state afterwards.
		if a, b := ref.Next(), gen.Next(); a.Kind != b.Kind || !bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("%s: generators diverged after %d ops", cfg.Name, n)
		}
	}
}
