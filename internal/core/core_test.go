package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
)

// testOptions builds a small two-tier configuration that compacts readily.
// Compaction runs in sync mode so every existing test stays deterministic:
// stats and tier placement are exact at every step. Async-mode behavior is
// covered separately in async_test.go.
func testOptions() Options {
	nvm := simdev.New(simdev.NVMParams(64 << 20))
	flash := simdev.New(simdev.QLCParams(512 << 20))
	return Options{
		CompactionMode:   CompactionSync,
		Partitions:       1,
		NVM:              nvm,
		Flash:            flash,
		Cache:            simdev.NewPageCache(256 << 10),
		NVMBudget:        512 << 10, // 512 KiB — fills after ~few hundred 1KB objects
		TrackerCapacity:  256,
		PinningThreshold: 0.7,
		KeySpace:         1 << 16,
		BucketKeys:       256,
		TargetSSTBytes:   16 << 10,
		Seed:             1,
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func val(i, size int) []byte {
	v := bytes.Repeat([]byte{byte('a' + i%26)}, size)
	copy(v, fmt.Sprintf("v%d-", i))
	return v
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without devices must fail")
	}
	o := testOptions()
	o.LowWatermark = 0.99
	o.HighWatermark = 0.98
	if _, err := Open(o); err == nil {
		t.Fatal("low ≥ high watermark must fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Put(key(i), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		v, tier, lat, err := db.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if tier == TierMiss {
			t.Fatalf("key %d missing", i)
		}
		if !bytes.Equal(v, val(i, 100)) {
			t.Fatalf("key %d value mismatch", i)
		}
		if lat <= 0 {
			t.Fatal("latency not positive")
		}
	}
	if _, tier, _, _ := db.Get(key(999)); tier != TierMiss {
		t.Fatalf("absent key tier = %v", tier)
	}
	st := db.Stats()
	if st.Puts != 100 || st.Gets != 101 || st.GetMiss != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUpdateInPlaceVsMove(t *testing.T) {
	db, _ := Open(testOptions())
	db.Put(key(1), val(1, 100))
	db.Put(key(1), val(2, 95)) // key 12B + value ≤ 100B stays in the 128 B class
	st := db.Stats()
	if st.InPlaceUpdates != 1 {
		t.Fatalf("in-place updates = %d; stats %+v", st.InPlaceUpdates, st)
	}
	db.Put(key(1), val(3, 900)) // jumps to the 1024 class
	st = db.Stats()
	if st.SlabMoves != 1 {
		t.Fatalf("slab moves = %d", st.SlabMoves)
	}
	v, _, _, _ := db.Get(key(1))
	if !bytes.Equal(v, val(3, 900)) {
		t.Fatal("value after class move wrong")
	}
	if st.NVMObjects != 1 {
		t.Fatalf("NVMObjects = %d", st.NVMObjects)
	}
}

func TestGetSourceDRAMAfterWrite(t *testing.T) {
	db, _ := Open(testOptions())
	db.Put(key(1), val(1, 100))
	// The synchronous write left the page cache warm.
	_, tier, _, _ := db.Get(key(1))
	if tier != TierDRAM {
		t.Fatalf("tier = %v, want dram (page-cache hit)", tier)
	}
}

func TestDeleteSimple(t *testing.T) {
	db, _ := Open(testOptions())
	db.Put(key(1), val(1, 100))
	if _, err := db.Delete(key(1)); err != nil {
		t.Fatal(err)
	}
	_, tier, _, _ := db.Get(key(1))
	if tier != TierMiss {
		t.Fatalf("tier after delete = %v", tier)
	}
	st := db.Stats()
	if st.Deletes != 1 || st.NVMObjects != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// fillUntilCompaction loads enough data to force demotions.
func fillUntilCompaction(t *testing.T, db *DB, n, vsize int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, vsize)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction triggered; grow n")
	}
}

func TestCompactionDemotesAndDataSurvives(t *testing.T) {
	db, _ := Open(testOptions())
	const n = 2000
	fillUntilCompaction(t, db, n, 400)
	st := db.Stats()
	if st.Demoted == 0 {
		t.Fatal("nothing demoted")
	}
	if st.FlashObjects == 0 {
		t.Fatal("no objects on flash")
	}
	used, budget := db.NVMUsage()
	if used > budget {
		t.Fatalf("NVM over budget: %d > %d", used, budget)
	}
	// Every key still readable with correct value.
	flashHits := 0
	for i := 0; i < n; i++ {
		v, tier, _, err := db.Get(key(i))
		if err != nil || tier == TierMiss {
			t.Fatalf("key %d: tier=%v err=%v", i, tier, err)
		}
		if !bytes.Equal(v, val(i, 400)) {
			t.Fatalf("key %d corrupted after compaction", i)
		}
		if tier == TierFlash {
			flashHits++
		}
	}
	if flashHits == 0 {
		t.Fatal("no reads served from flash despite demotions")
	}
}

func TestCompactionPinsHotKeys(t *testing.T) {
	o := testOptions()
	o.PinningThreshold = 0.5
	db, _ := Open(o)
	// Heat a working set repeatedly while cold keys pour in.
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i, 400))
		for h := 0; h < 3; h++ {
			hot := i % 20 // keys 0..19 stay hot
			db.Get(key(hot))
		}
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions")
	}
	// Hot keys should still be NVM-resident.
	nvmHot := 0
	for i := 0; i < 20; i++ {
		_, tier, _, _ := db.Get(key(i))
		if tier == TierDRAM || tier == TierNVM {
			nvmHot++
		}
	}
	if nvmHot < 15 {
		t.Fatalf("only %d/20 hot keys on NVM/DRAM", nvmHot)
	}
}

func TestUpdateAfterDemotionShadowsFlash(t *testing.T) {
	db, _ := Open(testOptions())
	const n = 2000
	fillUntilCompaction(t, db, n, 400)
	// Rewrite key 0 (likely demoted by now).
	db.Put(key(0), val(777, 50))
	v, tier, _, _ := db.Get(key(0))
	if tier == TierFlash {
		t.Fatalf("fresh write served from flash")
	}
	if !bytes.Equal(v, val(777, 50)) {
		t.Fatal("NVM version does not shadow flash")
	}
	// After further compactions the stale flash version must die, never
	// resurrect.
	for i := n; i < n+1500; i++ {
		db.Put(key(i), val(i, 400))
	}
	v, _, _, _ = db.Get(key(0))
	if !bytes.Equal(v, val(777, 50)) {
		t.Fatal("stale flash version resurrected")
	}
}

func TestDeleteWithFlashVersionTombstones(t *testing.T) {
	db, _ := Open(testOptions())
	const n = 2000
	fillUntilCompaction(t, db, n, 400)
	st0 := db.Stats()
	if st0.FlashObjects == 0 {
		t.Fatal("setup: nothing on flash")
	}
	// Delete everything; flash-resident keys need tombstones.
	for i := 0; i < n; i++ {
		if _, err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		_, tier, _, _ := db.Get(key(i))
		if tier != TierMiss {
			t.Fatalf("key %d alive after delete (tier %v)", i, tier)
		}
	}
	// Force compactions to churn tombstones through the merge.
	for i := n; i < n+2000; i++ {
		db.Put(key(i), val(i, 400))
	}
	for i := 0; i < n; i++ {
		_, tier, _, _ := db.Get(key(i))
		if tier != TierMiss {
			t.Fatalf("key %d resurrected after tombstone merge", i)
		}
	}
	if st := db.Stats(); st.DroppedTombstones == 0 {
		t.Fatal("no tombstones annihilated")
	}
}

func TestScanMergedOrder(t *testing.T) {
	db, _ := Open(testOptions())
	const n = 2000
	fillUntilCompaction(t, db, n, 400) // spread across both tiers
	kvs, lat, err := db.Scan(key(100), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 50 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	if lat <= 0 {
		t.Fatal("scan latency not positive")
	}
	for i, kv := range kvs {
		want := key(100 + i)
		if !bytes.Equal(kv.Key, want) {
			t.Fatalf("scan[%d] = %q, want %q", i, kv.Key, want)
		}
		if !bytes.Equal(kv.Value, val(100+i, 400)) {
			t.Fatalf("scan[%d] wrong value", i)
		}
	}
}

func TestScanSkipsDeleted(t *testing.T) {
	db, _ := Open(testOptions())
	for i := 0; i < 20; i++ {
		db.Put(key(i), val(i, 100))
	}
	db.Delete(key(5))
	kvs, _, _ := db.Scan(key(0), 10)
	for _, kv := range kvs {
		if bytes.Equal(kv.Key, key(5)) {
			t.Fatal("deleted key in scan")
		}
	}
	if len(kvs) != 10 {
		t.Fatalf("scan len = %d", len(kvs))
	}
}

func TestMultiPartitionHashAndRange(t *testing.T) {
	for _, rangePart := range []bool{false, true} {
		o := testOptions()
		o.Partitions = 4
		o.NVMBudget = 2 << 20
		o.RangePartitioning = rangePart
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1000
		for i := 0; i < n; i++ {
			db.Put(key(i), val(i, 100))
		}
		for i := 0; i < n; i++ {
			v, tier, _, _ := db.Get(key(i))
			if tier == TierMiss || !bytes.Equal(v, val(i, 100)) {
				t.Fatalf("range=%v key %d bad", rangePart, i)
			}
		}
		// Global scan order must hold under both partitionings.
		kvs, _, err := db.Scan(key(0), 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != 200 {
			t.Fatalf("scan len = %d", len(kvs))
		}
		for i := 1; i < len(kvs); i++ {
			if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
				t.Fatalf("range=%v scan out of order at %d", rangePart, i)
			}
		}
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	o := testOptions()
	db, _ := Open(o)
	const n = 2000
	for i := 0; i < n; i++ {
		db.Put(key(i), val(i, 400))
	}
	// Overwrite some keys so recovery must pick newest versions.
	for i := 0; i < 100; i++ {
		db.Put(key(i), val(i+5000, 200))
	}
	db.Delete(key(50))
	stBefore := db.Stats()
	if stBefore.Compactions == 0 {
		t.Fatal("setup: want compactions before crash")
	}

	// "Crash": discard the DB; reopen from the same devices.
	db2, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := val(i, 400)
		if i < 100 {
			want = val(i+5000, 200)
		}
		v, tier, _, err := db2.Get(key(i))
		if i == 50 {
			if tier != TierMiss {
				t.Fatal("deleted key resurrected by recovery")
			}
			continue
		}
		if err != nil || tier == TierMiss {
			t.Fatalf("key %d lost in crash: tier=%v err=%v", i, tier, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("key %d: recovered stale version", i)
		}
	}
	// Recovered DB must keep working (slots reusable, compactions fire).
	for i := n; i < n+1000; i++ {
		if _, err := db2.Put(key(i), val(i, 400)); err != nil {
			t.Fatalf("post-recovery put: %v", err)
		}
	}
}

func TestWriteStallsUnderPressure(t *testing.T) {
	// A flood of fresh inserts into a tiny NVM budget: admission is
	// capped at (headroom + bytes the in-flight compaction frees), so
	// inserts that outrun the compaction must stall (§4.2).
	o := testOptions()
	o.NVMBudget = 128 << 10
	db, _ := Open(o)
	for i := 0; i < 4000; i++ {
		db.Put(key(i), val(i, 2000)) // distinct keys: every put consumes a slot
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions under pressure")
	}
	if st.WriteStalls == 0 {
		t.Fatal("no write stalls recorded")
	}
	if st.WriteStallTime <= 0 {
		t.Fatal("stall time not accounted")
	}
}

func TestPromotionsBringHotDataBack(t *testing.T) {
	o := promotionOptions()
	o.ReadTrigger = ReadTriggerOptions{
		Enabled: true, Epoch: 2000, Cooldown: 4000, MinFlashFraction: 0.05,
	}
	db, _ := Open(o)
	const n = 2000
	fillUntilCompaction(t, db, n, 400)
	// Start where a read-only workload leaves NVM: at the high watermark,
	// with no put coming to trigger a demotion. Promotions must make their
	// own room.
	fillToHighWatermark(t, db, n, 400)
	// Read-only phase hammering a flash-resident working set.
	hotStart := 0
	for i := 0; i < 200; i++ {
		// Find some flash-resident hot keys.
		_, tier, _, _ := db.Get(key(i))
		if tier == TierFlash {
			hotStart = i
			break
		}
	}
	for round := 0; round < 20000; round++ {
		db.Get(key(hotStart + round%50))
	}
	st := db.Stats()
	if st.Promoted == 0 || st.PromotedBytes == 0 {
		t.Fatalf("no promotions despite hot flash reads; stats %+v", st)
	}
	if st.ReadTriggeredComps == 0 {
		t.Fatal("read-triggered compactions never fired")
	}
	if st.PromoteNoRoom == 0 {
		t.Fatalf("no round ran out of room from the high watermark; stats %+v", st)
	}
	// The hot keys should now be fast again, and intact.
	fast := 0
	for i := 0; i < 50; i++ {
		v, tier, _, _ := db.Get(key(hotStart + i))
		if !bytes.Equal(v, val(hotStart+i, 400)) {
			t.Fatalf("hot key %d corrupted by promotion", hotStart+i)
		}
		if tier != TierFlash {
			fast++
		}
	}
	if fast < 40 {
		t.Fatalf("only %d/50 hot keys served from NVM/DRAM", fast)
	}
	// A flash block in the page cache also reads as DRAM; the placement
	// itself must have moved.
	var hot []int
	for i := 0; i < 50; i++ {
		hot = append(hot, hotStart+i)
	}
	if onNVM := len(nvmResident(db.parts[0], hot)); onNVM < 30 {
		t.Fatalf("only %d/50 hot keys resident on NVM", onNVM)
	}
}

func TestPoliciesAllFunctional(t *testing.T) {
	for _, pol := range []msc.Policy{msc.Approx, msc.Precise, msc.Random} {
		o := testOptions()
		o.Policy = pol
		db, _ := Open(o)
		const n = 1500
		for i := 0; i < n; i++ {
			db.Put(key(i), val(i, 400))
		}
		st := db.Stats()
		if st.Compactions == 0 {
			t.Fatalf("%v: no compactions", pol)
		}
		for i := 0; i < n; i += 37 {
			v, tier, _, _ := db.Get(key(i))
			if tier == TierMiss || !bytes.Equal(v, val(i, 400)) {
				t.Fatalf("%v: key %d bad", pol, i)
			}
		}
	}
}

func TestPreciseSelectionCostsMoreTime(t *testing.T) {
	run := func(pol msc.Policy) (sel int64) {
		o := testOptions()
		o.Policy = pol
		o.Seed = 7
		db, _ := Open(o)
		for i := 0; i < 3000; i++ {
			db.Put(key(i), val(i, 400))
		}
		return int64(db.Stats().SelectionTime)
	}
	precise := run(msc.Precise)
	approx := run(msc.Approx)
	if precise <= approx*2 {
		t.Fatalf("precise selection %d ns not ≫ approx %d ns", precise, approx)
	}
}

func TestObjectTooLarge(t *testing.T) {
	db, _ := Open(testOptions())
	if _, err := db.Put(key(1), make([]byte, 8192)); err == nil {
		t.Fatal("oversized object accepted")
	}
}

func TestStatsReset(t *testing.T) {
	db, _ := Open(testOptions())
	db.Put(key(1), val(1, 100))
	db.ResetStats()
	st := db.Stats()
	if st.Puts != 0 {
		t.Fatalf("puts after reset = %d", st.Puts)
	}
	if st.NVMObjects != 1 {
		t.Fatalf("object counts must survive reset: %d", st.NVMObjects)
	}
}

func TestElapsedAdvances(t *testing.T) {
	db, _ := Open(testOptions())
	if db.Elapsed() != 0 {
		t.Fatal("fresh DB elapsed != 0")
	}
	db.Put(key(1), val(1, 100))
	if db.Elapsed() <= 0 {
		t.Fatal("elapsed did not advance")
	}
	before := db.Elapsed()
	db.AdvanceAll()
	if db.Elapsed() < before {
		t.Fatal("AdvanceAll went backward")
	}
}

func TestDefaultKeyIndex(t *testing.T) {
	if DefaultKeyIndex([]byte("user000123")) != 123 {
		t.Fatal("digit parse failed")
	}
	if DefaultKeyIndex([]byte("k9x8")) != 98 {
		t.Fatal("interleaved digits")
	}
	a := DefaultKeyIndex([]byte("abc"))
	b := DefaultKeyIndex([]byte("abd"))
	if a == b {
		t.Fatal("non-numeric keys should hash distinctly")
	}
}

// TestModelBasedChurn runs a random op mix against a map model with heavy
// compaction churn and verifies the DB agrees at every step's read.
func TestModelBasedChurn(t *testing.T) {
	o := testOptions()
	o.Partitions = 2
	o.NVMBudget = 256 << 10
	db, _ := Open(o)
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(42))
	const keys = 600
	for step := 0; step < 12000; step++ {
		k := key(rng.Intn(keys))
		switch rng.Intn(10) {
		case 0: // delete
			db.Delete(k)
			delete(model, string(k))
		case 1, 2, 3, 4: // put
			v := val(rng.Intn(100000), 50+rng.Intn(800))
			if _, err := db.Put(k, v); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			model[string(k)] = v
		default: // get
			v, tier, _, err := db.Get(k)
			if err != nil {
				t.Fatalf("step %d get: %v", step, err)
			}
			want, exists := model[string(k)]
			if exists != (tier != TierMiss) {
				t.Fatalf("step %d: key %s exists=%v tier=%v", step, k, exists, tier)
			}
			if exists && !bytes.Equal(v, want) {
				t.Fatalf("step %d: key %s value mismatch", step, k)
			}
		}
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("churn test never compacted")
	}
	// Final sweep.
	for i := 0; i < keys; i++ {
		k := key(i)
		v, tier, _, _ := db.Get(k)
		want, exists := model[string(k)]
		if exists != (tier != TierMiss) || (exists && !bytes.Equal(v, want)) {
			t.Fatalf("final sweep: key %d inconsistent", i)
		}
	}
}

func TestEveryKeyOnExactlyOneAuthoritativeTier(t *testing.T) {
	// Invariant: after heavy churn, a Get never returns a stale version,
	// i.e. the NVM copy (if any) is always the newest.
	db, _ := Open(testOptions())
	versions := map[string]int{}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 8000; step++ {
		i := rng.Intn(400)
		versions[string(key(i))] = step
		db.Put(key(i), val(step, 400))
	}
	for i := 0; i < 400; i++ {
		k := key(i)
		want, ok := versions[string(k)]
		if !ok {
			continue
		}
		v, tier, _, _ := db.Get(k)
		if tier == TierMiss {
			t.Fatalf("key %d lost", i)
		}
		if !bytes.Equal(v, val(want, 400)) {
			t.Fatalf("key %d returned stale version", i)
		}
	}
}
