package prismdb_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/prismdb/prismdb"
)

func smallConfig() prismdb.Options {
	return prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  4 << 20,
		NVMFraction: 1.0 / 6,
		DatasetKeys: 4000,
		Partitions:  4,
	})
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db, err := prismdb.Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 300) }

	for i := 0; i < 3000; i++ {
		if _, err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// RecommendedConfig compacts in the background (CompactionAsync):
	// settle the workers before asserting on compaction counters.
	db.DrainCompactions()
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("expected compactions at this fill level")
	}
	for i := 0; i < 3000; i += 17 {
		v, tier, lat, err := db.Get(key(i))
		if err != nil || tier == prismdb.TierMiss {
			t.Fatalf("key %d: tier=%v err=%v", i, tier, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d corrupted", i)
		}
		if lat <= 0 {
			t.Fatal("no simulated latency")
		}
	}
	kvs, _, err := db.Scan(key(100), 10)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("scan: %d results, err %v", len(kvs), err)
	}
	it := db.NewIterator(key(100), 0)
	for i := 0; i < 10; i++ {
		if !it.Valid() {
			t.Fatalf("iterator exhausted at %d", i)
		}
		if !bytes.Equal(it.Key(), kvs[i].Key) || !bytes.Equal(it.Value(), kvs[i].Value) {
			t.Fatalf("iterator[%d] = %q, Scan saw %q", i, it.Key(), kvs[i].Key)
		}
		it.Next()
	}
	if it.Latency() <= 0 {
		t.Fatal("iterator consumed no virtual time")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(key(5)); err != nil {
		t.Fatal(err)
	}
	if _, tier, _, _ := db.Get(key(5)); tier != prismdb.TierMiss {
		t.Fatal("delete did not take")
	}
	used, budget := db.NVMUsage()
	if used <= 0 || used > budget {
		t.Fatalf("NVM usage %d / %d out of range", used, budget)
	}
	if db.Partitions() != 4 {
		t.Fatalf("partitions = %d", db.Partitions())
	}
	if db.Elapsed() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	dist := db.ClockDistribution()
	total := 0
	for _, n := range dist {
		total += n
	}
	if total == 0 {
		t.Fatal("tracker empty after workload")
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	cfg := smallConfig()
	db, err := prismdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("user%06d", i))
		if _, err := db.Put(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: reopen against the same devices, same options.
	db2, err := prismdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 13 {
		k := []byte(fmt.Sprintf("user%06d", i))
		v, tier, _, err := db2.Get(k)
		if err != nil || tier == prismdb.TierMiss {
			t.Fatalf("key %d lost in crash", i)
		}
		if string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d stale after recovery", i)
		}
	}
}

func TestDeviceConstructors(t *testing.T) {
	nvm := prismdb.NVMDevice(1 << 30)
	qlc := prismdb.QLCDevice(1 << 30)
	tlc := prismdb.TLCDevice(1 << 30)
	if nvm.Params().CostPerGB != 2.5 || qlc.Params().CostPerGB != 0.1 || tlc.Params().CostPerGB != 0.31 {
		t.Fatal("device cost parameters wrong")
	}
	if qlc.Params().ReadLatency <= nvm.Params().ReadLatency {
		t.Fatal("QLC must be slower than NVM")
	}
}

func TestRecommendedConfigDefaults(t *testing.T) {
	cfg := prismdb.RecommendedConfig(prismdb.TierSpec{})
	if cfg.NVM == nil || cfg.Flash == nil || cfg.Cache == nil {
		t.Fatal("devices not defaulted")
	}
	if cfg.PinningThreshold != 0.7 {
		t.Fatalf("pinning threshold %f", cfg.PinningThreshold)
	}
	if !cfg.ReadTrigger.Enabled {
		t.Fatal("read-triggered promotion should default on")
	}
}
