package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
)

// TestGetNVMHitZeroAlloc pins the read path's perf property on what is now
// the LOCK-FREE fast path: an NVM/DRAM-hit GetBuf with a reused value
// buffer performs zero heap allocations and takes no lock — the read view
// acquire is two atomics, the slab read lands in a recycled slot buffer
// from the partition's rack, the private virtual clock lives on the stack,
// the popularity touch goes to the bounded ring, and the read counters are
// plain atomic adds. (TestGetZeroAllocAfterConcurrentChurn in
// lockfree_test.go re-pins the same bound after concurrent contention.)
func TestGetNVMHitZeroAlloc(t *testing.T) {
	o := testOptions()
	o.NVMBudget = 64 << 20 // everything stays NVM-resident: no compactions
	o.Cache = simdev.NewPageCache(32 << 20)
	o.TrackerCapacity = 4096 // all keys tracked: no CLOCK evictions
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = key(i)
		if _, err := db.Put(keys[i], val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm everything: tracker entries, bucket bitsets, page cache, value
	// buffer capacity.
	buf := make([]byte, 0, 1024)
	for _, k := range keys {
		v, tier, _, err := db.GetBuf(k, buf)
		if err != nil || tier == TierMiss {
			t.Fatalf("warm get: tier=%v err=%v", tier, err)
		}
		buf = v[:0]
	}

	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		v, tier, _, err := db.GetBuf(keys[i%n], buf)
		if err != nil || tier == TierMiss {
			t.Fatalf("get: tier=%v err=%v", tier, err)
		}
		buf = v[:0]
		i++
	})
	if allocs != 0 {
		t.Fatalf("NVM-hit GetBuf allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGetFlashHitZeroAlloc pins the flash read path at zero heap allocations
// per GET with a reused value buffer: the filter is probed once, the SST
// block is decoded where it lies in the in-memory table's extents, and the
// hit's value is appended straight into the caller's buffer — whether the
// block's pages are resident in the page cache or read from the device.
func TestGetFlashHitZeroAlloc(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillUntilCompaction(t, db, 2000, 400)
	var keys [][]byte
	buf := make([]byte, 0, 1024)
	for i := 0; i < 2000 && len(keys) < 256; i++ {
		v, tier, _, err := db.GetBuf(key(i), buf)
		if err != nil || !bytes.Equal(v, val(i, 400)) {
			t.Fatalf("get %d: tier=%v err=%v", i, tier, err)
		}
		if tier == TierFlash {
			keys = append(keys, key(i))
		}
		buf = v[:0]
	}
	if len(keys) < 64 {
		t.Fatalf("fixture: only %d flash-resident keys", len(keys))
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		v, tier, _, err := db.GetBuf(keys[i%len(keys)], buf)
		if err != nil || (tier != TierFlash && tier != TierDRAM) || len(v) != 400 {
			t.Fatalf("get: tier=%v err=%v len=%d", tier, err, len(v))
		}
		buf = v[:0]
		i++
	})
	if allocs != 0 {
		t.Fatalf("flash-hit GetBuf allocates %.2f objects/op, want 0", allocs)
	}
}

// TestIteratorNextZeroAlloc pins the scan tentpole's perf property: once an
// iterator is warm, Next over NVM-resident data performs zero heap
// allocations — keys alias the view's B-tree, whose cursor is a fixed path,
// slots are read into the iterator's reused buffer and values view it, and
// the cursor heap holds pointers (no interface boxing).
func TestIteratorNextZeroAlloc(t *testing.T) {
	o := testOptions()
	o.Partitions = 4
	o.NVMBudget = 64 << 20 // everything NVM-resident: no compactions
	o.Cache = simdev.NewPageCache(32 << 20)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIterator(nil, 0)
	defer it.Close()
	// Warm one full pass: buffer capacities, page cache.
	for it.Valid() {
		it.Next()
	}
	it.Seek(nil)
	allocs := testing.AllocsPerRun(4000, func() {
		if !it.Valid() {
			if !it.Seek(nil) {
				t.Fatal("seek to start found nothing")
			}
		}
		if len(it.Key()) == 0 || len(it.Value()) == 0 {
			t.Fatal("empty entry")
		}
		it.Next()
	})
	if allocs != 0 {
		t.Fatalf("warm Iterator.Next allocates %.2f objects/op, want 0", allocs)
	}
}

// TestConcurrentScansUnderWrites is the scan-heavy -race stress: iterators
// (bounded and unbounded) stream across all partitions while every
// partition's data is concurrently written, deleted, and compacted. It
// guards the epoch-pinning, snapshot refcounting, and the rule that scans
// only ever lock one foreign partition at a time.
func TestConcurrentScansUnderWrites(t *testing.T) {
	o := testOptions()
	o.Partitions = 4
	o.NVMBudget = 1 << 20 // tight: writes keep triggering demotions
	o.CPUPool = simdev.NewCPUPool(4)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3000
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ { // writers
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key((seed*811 + i*13) % keys)
				var err error
				if i%19 == 0 {
					_, err = db.Delete(k)
				} else {
					_, err = db.Put(k, val(i, 512))
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ { // scanners
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				limit := 0
				if i%2 == 0 {
					limit = 50
				}
				it := db.NewIterator(key((seed*577+i*101)%keys), limit)
				var last []byte
				for cnt := 0; it.Valid() && cnt < 200; cnt++ {
					if last != nil && bytes.Compare(last, it.Key()) >= 0 {
						errCh <- fmt.Errorf("scan order violated: %q after %q", it.Key(), last)
						it.Close()
						return
					}
					last = append(last[:0], it.Key()...)
					it.Next()
				}
				if err := it.Close(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("workload never compacted; scan stress lost its bite")
	}
}

// TestConcurrentOpsAcrossPartitions drives concurrent Get/Put/Delete/Scan
// workers against a multi-partition DB sized to compact continuously, the
// pattern the parallel bench driver produces. Run with -race: it guards
// the lock-free manifest snapshots, shared devices, page cache, and CPU
// pool against unsynchronized access.
func TestConcurrentOpsAcrossPartitions(t *testing.T) {
	o := testOptions()
	o.Partitions = 4
	o.NVMBudget = 1 << 20 // tight: writes keep triggering demotions
	o.CPUPool = simdev.NewCPUPool(4)
	o.ReadTrigger = DefaultReadTrigger(2000)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const opsPerWorker = 1500
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 0, 1024)
			rng := uint64(seed)*2654435761 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < opsPerWorker; i++ {
				k := key(next(keys))
				switch next(10) {
				case 0, 1, 2:
					if _, err := db.Put(k, val(i, 512)); err != nil {
						errCh <- err
						return
					}
				case 3:
					if i%100 == 0 {
						if _, _, err := db.Scan(k, 10); err != nil {
							errCh <- err
							return
						}
					}
				case 4:
					if i%50 == 0 {
						if _, err := db.Delete(k); err != nil {
							errCh <- err
							return
						}
					}
				default:
					v, tier, _, err := db.GetBuf(k, buf)
					if err != nil {
						errCh <- err
						return
					}
					if tier != TierMiss {
						buf = v[:0]
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("workload never compacted; concurrency test lost its bite")
	}
	if st.NVMObjects+st.FlashObjects == 0 {
		t.Fatal("no live objects after concurrent run")
	}
}

// TestPartitionOfMatchesRouting pins the O(1) PartitionOf satellite: the
// reported index must be the partition that actually serves the key, under
// both hash and range partitioning.
func TestPartitionOfMatchesRouting(t *testing.T) {
	for _, rangePart := range []bool{false, true} {
		o := testOptions()
		o.Partitions = 8
		o.RangePartitioning = rangePart
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			k := key(i)
			idx := db.PartitionOf(k)
			if idx < 0 || idx >= db.Partitions() {
				t.Fatalf("PartitionOf(%q) = %d out of range", k, idx)
			}
			if db.parts[idx] != db.partitionOf(k) {
				t.Fatalf("PartitionOf(%q) = %d does not match routing (range=%v)", k, idx, rangePart)
			}
		}
	}
}
