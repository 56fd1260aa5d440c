package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/tracker"
)

// prefixedVal builds a value that embeds its key, so concurrent readers can
// prove a GET never returns another key's bytes — the exact hazard the
// lock-free read path's slot validation exists to rule out (a view-resolved
// slot freed and recycled to a different key mid-read).
func prefixedVal(k []byte, size int) []byte {
	v := make([]byte, 0, size)
	v = append(v, k...)
	for len(v) < size {
		v = append(v, byte('p'))
	}
	return v
}

// TestLockFreeGetRacesMutators is the lock-free read path's -race stress:
// concurrent GETs and MGET-shaped batched reads race puts, deletes,
// async-compaction commits, and finally Close. Every hit's value must carry
// its key's prefix (stale-view retries may serve a slightly older value of
// the RIGHT key; never another key's), and after the close wave every
// operation must fail with ErrClosed rather than touching torn state.
func TestLockFreeGetRacesMutators(t *testing.T) {
	o := testOptions()
	o.CompactionMode = CompactionAsync
	o.Partitions = 2
	o.NVMBudget = 1 << 20 // tight: background merge commits churn the view
	o.CPUPool = simdev.NewCPUPool(4)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1500
	const vsize = 512
	for i := 0; i < keys; i++ {
		k := key(i)
		if _, err := db.Put(k, prefixedVal(k, vsize)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	checkHit := func(k, v []byte) bool {
		if !bytes.HasPrefix(v, k) {
			errCh <- fmt.Errorf("GET %q returned another key's value %q", k, v[:min(len(v), 24)])
			return false
		}
		return true
	}

	for g := 0; g < 3; g++ { // point readers
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 0, 1024)
			for i := 0; i < 4000; i++ {
				k := key((seed*911 + i*31) % keys)
				v, tier, _, err := db.GetBuf(k, buf)
				if err != nil {
					errCh <- err
					return
				}
				if tier != TierMiss {
					if !checkHit(k, v) {
						return
					}
					buf = v[:0]
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // MGET-shaped batches: one scratch buffer, many keys per "command"
		defer wg.Done()
		buf := make([]byte, 0, 1024)
		for i := 0; i < 600; i++ {
			for j := 0; j < 8; j++ {
				k := key((i*131 + j*17) % keys)
				v, tier, _, err := db.GetBuf(k, buf)
				if err != nil {
					errCh <- err
					return
				}
				if tier != TierMiss {
					if !checkHit(k, v) {
						return
					}
					buf = v[:0]
				}
			}
		}
	}()
	for g := 0; g < 2; g++ { // writers: overwrites force class-stable updates and COW moves
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := key((seed*577 + i*13) % keys)
				if _, err := db.Put(k, prefixedVal(k, vsize)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // deleter: frees + recycles slots under in-flight reads
		defer wg.Done()
		for i := 0; i < 1200; i++ {
			k := key((i * 37) % keys)
			if _, err := db.Delete(k); err != nil {
				errCh <- err
				return
			}
			if i%3 == 0 { // re-insert so readers keep finding live keys
				if _, err := db.Put(k, prefixedVal(k, vsize)); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("stress never compacted; the commit-vs-read race lost its bite")
	}

	// Close wave: readers race teardown. Each GET either completes normally
	// (it won the db.closed check) or fails with ErrClosed — never panics,
	// never returns foreign bytes.
	var cw sync.WaitGroup
	closeErrs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		cw.Add(1)
		go func(seed int) {
			defer cw.Done()
			buf := make([]byte, 0, 1024)
			for i := 0; i < 2000; i++ {
				k := key((seed*101 + i) % keys)
				v, tier, _, err := db.GetBuf(k, buf)
				if err != nil {
					if err != ErrClosed {
						closeErrs <- err
					}
					return
				}
				if tier != TierMiss {
					if !bytes.HasPrefix(v, k) {
						closeErrs <- fmt.Errorf("GET %q after-close race returned %q", k, v[:min(len(v), 24)])
						return
					}
					buf = v[:0]
				}
			}
		}(g)
	}
	cw.Add(1)
	go func() {
		defer cw.Done()
		db.Close()
	}()
	cw.Wait()
	close(closeErrs)
	for err := range closeErrs {
		t.Fatal(err)
	}
	if _, _, _, err := db.Get(key(1)); err != ErrClosed {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// TestGetZeroAllocAfterConcurrentChurn re-pins the 0 allocs/op guard AFTER
// the lock-free machinery has been exercised concurrently: the buffer rack,
// touch ring, and view refcounts must return to an allocation-free steady
// state once contention subsides (e.g. no holder was leaked to the GC and
// re-allocated per op).
func TestGetZeroAllocAfterConcurrentChurn(t *testing.T) {
	o := testOptions()
	o.NVMBudget = 64 << 20 // everything NVM-resident: no compactions
	o.Cache = simdev.NewPageCache(32 << 20)
	o.TrackerCapacity = 4096
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ { // churn the rack and ring from many goroutines
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 0, 1024)
			for i := 0; i < 2000; i++ {
				v, tier, _, err := db.GetBuf(keys[(seed+i)%n], buf)
				if err != nil || tier == TierMiss {
					t.Errorf("churn get: tier=%v err=%v", tier, err)
					return
				}
				buf = v[:0]
			}
		}(g)
	}
	wg.Wait()

	buf := make([]byte, 0, 1024)
	for _, k := range keys { // rewarm single-threaded
		v, _, _, err := db.GetBuf(k, buf)
		if err != nil {
			t.Fatal(err)
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
		t.Fatalf("lock-free GetBuf allocates %.2f objects/op after churn, want 0", allocs)
	}
}

// TestBloomFalsePositiveCounter pins the new Stats.BloomFalsePositives
// satellite: after demoting a key range to flash, probing absent keys that
// fall inside the tables' ranges must (a) count every filter pass that the
// table read then rejects and (b) leave hits and true misses uncounted.
// Bloom hashing is deterministic, so the count is stable for a fixed key
// set; with a 1% target FP rate over thousands of probes, zero would mean
// the counter (or the filter) is broken.
func TestBloomFalsePositiveCounter(t *testing.T) {
	o := testOptions()
	o.NVMBudget = 256 << 10 // tiny: most of the preload demotes to flash
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1200
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.FlashObjects == 0 {
		t.Fatal("preload never demoted; shrink the budget")
	}
	if st.BloomFalsePositives != 0 {
		// Possible in principle (hash collisions during preload reads), but
		// the preload does no reads at all.
		t.Fatalf("BloomFalsePositives = %d before any reads", st.BloomFalsePositives)
	}

	// Probe absent keys interleaved between real ones (odd offsets in a
	// dense decimal keyspace stay inside table ranges, so Find locates a
	// candidate table and the filter is actually consulted).
	misses := 0
	for i := 0; i < 6000; i++ {
		k := []byte(fmt.Sprintf("user%08dx", i%keys))
		_, tier, _, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if tier == TierMiss {
			misses++
		}
	}
	st = db.Stats()
	if misses == 0 {
		t.Fatal("probe keys unexpectedly exist")
	}
	if st.BloomFalsePositives == 0 {
		t.Fatalf("no bloom false positives counted over %d misses against %d flash objects",
			misses, st.FlashObjects)
	}
	if st.BloomFalsePositives > int64(misses) {
		t.Fatalf("BloomFalsePositives = %d exceeds total misses %d", st.BloomFalsePositives, misses)
	}
}

// TestTouchRing unit-tests the bounded MPSC touch ring: publication order,
// inline key copies, wrap-around reuse, and drop-don't-block when full.
func TestTouchRing(t *testing.T) {
	r := newTouchRing()
	var got []string
	drain := func() {
		r.drain(func(k []byte, idx uint64, loc tracker.Location) {
			got = append(got, fmt.Sprintf("%s/%d/%d", k, idx, loc))
		})
	}
	// Fill beyond capacity: the overflow must be dropped, not block.
	dropped := 0
	for i := 0; i < touchRingSize+100; i++ {
		if !r.push([]byte(fmt.Sprintf("k%04d", i)), uint64(i), tracker.NVM) {
			dropped++
		}
	}
	if dropped != 100 {
		t.Fatalf("dropped %d pushes, want 100", dropped)
	}
	drain()
	if len(got) != touchRingSize {
		t.Fatalf("drained %d entries, want %d", len(got), touchRingSize)
	}
	if got[0] != "k0000/0/0" || got[touchRingSize-1] != fmt.Sprintf("k%04d/%d/0", touchRingSize-1, touchRingSize-1) {
		t.Fatalf("order violated: first=%q last=%q", got[0], got[len(got)-1])
	}
	// Wrap-around: the ring must be fully reusable after a drain.
	got = got[:0]
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < touchRingSize/2; i++ {
			if !r.push([]byte("wrap"), uint64(lap), tracker.Flash) {
				t.Fatalf("push failed on lap %d entry %d", lap, i)
			}
		}
		drain()
	}
	if len(got) != 3*touchRingSize/2 {
		t.Fatalf("wrap drains = %d entries, want %d", len(got), 3*touchRingSize/2)
	}
	// Oversized keys are skipped (popularity approximation, never an alloc).
	if r.push(bytes.Repeat([]byte{'k'}, touchKeyMax+1), 1, tracker.NVM) {
		t.Fatal("oversized key accepted")
	}
}
