package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/simdev"
)

// TestOwnerBatchCoalescing proves the tentpole's economics deterministically:
// writes that arrive while the owner is busy coalesce into ONE critical
// section with ONE view republication. The test holds the partition lock to
// stall the owner mid-batch, queues 15 more puts behind it, and releases —
// exactly two batches (the stalled single and the coalesced 15) may result.
func TestOwnerBatchCoalescing(t *testing.T) {
	o := testOptions()
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.parts[0]

	p.mu.Lock()
	base := p.stats.WriteBatches
	baseRepub := p.stats.ViewRepublishes

	var wg sync.WaitGroup
	putAsync := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Put(key(i), val(i, 256)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}()
	}

	// One put: the owner wakes, drains it, and stalls on p.mu (held here).
	putAsync(0)
	deadline := time.Now().Add(5 * time.Second)
	for !(p.wq.tail.Load() == p.wq.head.Load() && p.wq.tail.Load() > 0) {
		if time.Now().After(deadline) {
			t.Fatal("owner never drained the first intent")
		}
		runtime.Gosched()
	}
	// 15 more: they can only accumulate in the ring while the owner is
	// stalled, so they MUST form one batch.
	for i := 1; i < 16; i++ {
		putAsync(i)
	}
	for p.wq.depth() < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("ring depth = %d, want 15", p.wq.depth())
		}
		runtime.Gosched()
	}
	p.mu.Unlock()
	wg.Wait()

	st := db.Stats()
	if got := st.WriteBatches - base; got != 2 {
		t.Fatalf("WriteBatches delta = %d, want 2 (stalled single + coalesced 15)", got)
	}
	if got := st.ViewRepublishes - baseRepub; got != 2 {
		t.Fatalf("ViewRepublishes delta = %d, want 2 — one per batch, not one per op", got)
	}
	// The coalesced batch of 15 lands in the size-8..15 histogram bucket,
	// so the p99 representative must be at least 8.
	if st.WriteBatchP99 < 8 {
		t.Fatalf("WriteBatchP99 = %d, want >= 8 after a 15-op batch", st.WriteBatchP99)
	}
	// All 16 writes are readable (read-your-writes survived coalescing).
	for i := 0; i < 16; i++ {
		_, tier, _, err := db.Get(key(i))
		if err != nil || tier == TierMiss {
			t.Fatalf("get %d after coalesced batch: tier=%v err=%v", i, tier, err)
		}
	}
}

// TestReadYourWrites pins the ack contract the owner path must preserve: the
// moment Put returns, a lock-free GET on the same goroutine observes the
// value; the moment Delete returns, it observes the miss.
func TestReadYourWrites(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		k, v := key(i), val(i, 300)
		if _, err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
		got, tier, _, err := db.Get(k)
		if err != nil || tier == TierMiss {
			t.Fatalf("get %d right after put: tier=%v err=%v", i, tier, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("get %d = %q, want %q", i, got[:16], v[:16])
		}
		if i%3 == 0 {
			if _, err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			if _, tier, _, _ := db.Get(k); tier != TierMiss {
				t.Fatalf("get %d right after delete: tier=%v, want miss", i, tier)
			}
		}
	}
}

// TestWriteModeVirtualTimeFidelity runs one serial mixed workload under both
// write modes: the owner path must bill each op its own virtual-time
// interval (batching is a wall-clock optimization, not a virtual-time one),
// so total elapsed virtual time stays within 15% of WriteSync's inline path.
func TestWriteModeVirtualTimeFidelity(t *testing.T) {
	run := func(mode WriteMode) time.Duration {
		o := testOptions()
		o.WriteMode = mode
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 2000; i++ {
			if _, err := db.Put(key(i%600), val(i, 700)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if _, _, _, err := db.Get(key(i % 600)); err != nil {
					t.Fatal(err)
				}
			}
			if i%17 == 0 {
				if _, err := db.Delete(key(i % 600)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db.Elapsed()
	}
	sync := run(WriteSync)
	async := run(WriteAsync)
	ratio := float64(async) / float64(sync)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("virtual time diverged: sync=%v async=%v (ratio %.3f, want within 15%%)",
			sync, async, ratio)
	}
}

// TestPutBatch covers the batch entry point directly: correctness across
// partitions, latency summing, the empty batch, the sync-mode fallback, and
// post-Close failure.
func TestPutBatch(t *testing.T) {
	for _, mode := range []WriteMode{WriteAsync, WriteSync} {
		t.Run(mode.String(), func(t *testing.T) {
			o := testOptions()
			o.Partitions = 2
			o.WriteMode = mode
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			if lat, err := db.PutBatch(nil); err != nil || lat != 0 {
				t.Fatalf("empty batch = (%v, %v), want (0, nil)", lat, err)
			}
			const n = 64
			pairs := make([]KV, n)
			for i := range pairs {
				pairs[i] = KV{Key: key(i), Value: val(i, 400)}
			}
			lat, err := db.PutBatch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			if lat <= 0 {
				t.Fatal("batch latency must be positive (summed per-op virtual time)")
			}
			for i := 0; i < n; i++ {
				v, tier, _, err := db.Get(key(i))
				if err != nil || tier == TierMiss {
					t.Fatalf("get %d: tier=%v err=%v", i, tier, err)
				}
				if !bytes.Equal(v, val(i, 400)) {
					t.Fatalf("get %d mismatch", i)
				}
			}
			if st := db.Stats(); st.Puts != n {
				t.Fatalf("Puts = %d, want %d", st.Puts, n)
			}
			db.Close()
			if _, err := db.PutBatch(pairs[:2]); !errors.Is(err, ErrClosed) {
				t.Fatalf("PutBatch after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestPutBatchCrashDurability extends the acknowledged-write contract to
// batches: once PutBatch returns under SyncEvery, kill -9 must lose nothing
// — the batch's records share one WAL group append, and each intent's
// durability barrier covers its own LSN within the group.
func TestPutBatchCrashDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	const rounds, per = 20, 8
	for r := 0; r < rounds; r++ {
		pairs := make([]KV, per)
		for i := range pairs {
			pairs[i] = KV{Key: key(r*per + i), Value: val(r*per+i, 1024)}
		}
		if _, err := db.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	// A batched delete mix: tombstone-before-DEL ordering must hold within
	// the group too.
	if _, err := db.Delete(key(7)); err != nil {
		t.Fatal(err)
	}
	db.crashDurable()

	db, err = Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if ps := db.PersistenceStats(); ps.RecoveryRecords == 0 {
		t.Fatal("crash recovery replayed no WAL records")
	}
	for i := 0; i < rounds*per; i++ {
		v, tier, _, err := db.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if tier != TierMiss {
				t.Fatalf("deleted key %d resurfaced after recovery", i)
			}
			continue
		}
		if tier == TierMiss {
			t.Fatalf("acknowledged batched put %d lost after crash", i)
		}
		if !bytes.Equal(v, val(i, 1024)) {
			t.Fatalf("key %d recovered with wrong value", i)
		}
	}
}

// TestWriteQueueRacesMutators is the owner write path's -race stress
// (satellite): 8 producers hammer SET/DEL/PutBatch through the intent
// queues while lock-free GETs validate key-prefixed values, an open
// iterator holds a reclamation epoch, async compaction commits churn the
// view under a tight NVM budget, and finally Close races one last producer
// wave — every op must succeed or fail with ErrClosed, never hang, never
// serve another key's bytes.
func TestWriteQueueRacesMutators(t *testing.T) {
	o := testOptions()
	o.CompactionMode = CompactionAsync
	o.Partitions = 2
	o.NVMBudget = 1 << 20
	o.CPUPool = simdev.NewCPUPool(4)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1600
	const vsize = 512
	for i := 0; i < keys; i++ {
		k := key(i)
		if _, err := db.Put(k, prefixedVal(k, vsize)); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIterator(nil, 0) // pins an epoch across the whole churn
	if !it.Valid() {
		t.Fatal("iterator over preload must be valid")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ { // producers: single puts, deletes, and batches
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				switch {
				case i%11 == 0:
					k := key((seed*577 + i*13) % keys)
					if _, err := db.Delete(k); err != nil {
						errCh <- err
						return
					}
				case i%5 == 0:
					pairs := make([]KV, 4)
					for j := range pairs {
						k := key((seed*131 + i*7 + j) % keys)
						pairs[j] = KV{Key: k, Value: prefixedVal(k, vsize)}
					}
					if _, err := db.PutBatch(pairs); err != nil {
						errCh <- err
						return
					}
				default:
					k := key((seed*911 + i*31) % keys)
					if _, err := db.Put(k, prefixedVal(k, vsize)); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ { // lock-free readers validating prefixes
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 0, 1024)
			for i := 0; i < 4000; i++ {
				k := key((seed*101 + i*17) % keys)
				v, tier, _, err := db.GetBuf(k, buf)
				if err != nil {
					errCh <- err
					return
				}
				if tier != TierMiss {
					if !bytes.HasPrefix(v, k) {
						errCh <- fmt.Errorf("GET %q returned another key's value %q", k, v[:min(len(v), 24)])
						return
					}
					buf = v[:0]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("stress never compacted; the commit-vs-write race lost its bite")
	}
	if st.WriteBatches == 0 {
		t.Fatal("no write batches recorded; the owner path never ran")
	}
	// The pinned iterator must still walk its snapshot after the churn.
	seen := 0
	for it.Valid() && seen < 50 {
		if !bytes.HasPrefix(it.Value(), it.Key()) {
			t.Fatalf("iterator pair %q/%q lost prefix invariant", it.Key(), it.Value()[:24])
		}
		seen++
		it.Next()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// Close wave: producers race teardown. Each op either completes (it won
	// the closed check) or fails with ErrClosed — never hangs on a done
	// signal, never leaks a parked producer.
	var cw sync.WaitGroup
	var closedSeen atomic.Int64
	closeErrs := make(chan error, 8)
	for g := 0; g < 6; g++ {
		cw.Add(1)
		go func(seed int) {
			defer cw.Done()
			for i := 0; i < 2000; i++ {
				k := key((seed*67 + i) % keys)
				var err error
				if i%6 == 0 {
					_, err = db.PutBatch([]KV{{Key: k, Value: prefixedVal(k, vsize)}})
				} else if i%13 == 0 {
					_, err = db.Delete(k)
				} else {
					_, err = db.Put(k, prefixedVal(k, vsize))
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						closeErrs <- err
					} else {
						closedSeen.Add(1)
					}
					return
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
	if _, err := db.Put(key(1), prefixedVal(key(1), vsize)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}
