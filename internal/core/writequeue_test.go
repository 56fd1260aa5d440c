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

// TestWriteGroupCoalescing: writes that find their partition busy coalesce
// into ONE critical section with ONE view republication, applied by
// whichever of their submitters takes the lock first. The test holds the
// partition lock, queues 16 puts behind it, and releases it.
func TestWriteGroupCoalescing(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := db.parts[0]
	p.mu.Lock()
	base := p.stats
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Put(key(i), val(i, 256)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}()
	}
	waitQueued(t, p, 16)
	p.mu.Unlock()
	wg.Wait()

	st := db.Stats()
	if got := st.WriteBatches - base.WriteBatches; got != 1 {
		t.Fatalf("WriteBatches delta = %d, want 1 (the 16 queued puts as one batch)", got)
	}
	if got := st.ViewRepublishes - base.ViewRepublishes; got != 1 {
		t.Fatalf("ViewRepublishes delta = %d, want 1 — one per batch, not one per op", got)
	}
	// The batch of 16 lands in the 16..31 histogram bucket, so the p99
	// representative must be at least 8.
	if st.WriteBatchP99 < 8 {
		t.Fatalf("WriteBatchP99 = %d, want >= 8 after a 16-op batch", st.WriteBatchP99)
	}
	// Every writer queued; the leader applied one put of its own.
	if parks, direct := st.ProducerParks-base.ProducerParks, st.DirectWrites-base.DirectWrites; parks != 16 || direct != 1 || st.WriteQueueDepth != 0 {
		t.Fatalf("ProducerParks +%d, DirectWrites +%d, WriteQueueDepth %d; want +16, +1, 0", parks, direct, st.WriteQueueDepth)
	}
	for i := 0; i < 16; i++ {
		_, tier, _, err := db.Get(key(i))
		if err != nil || tier == TierMiss {
			t.Fatalf("get %d after coalesced batch: tier=%v err=%v", i, tier, err)
		}
	}
	db.Close()
}

// TestWriteGroupAcrossClose: Close strands no queued writer. Writes queued
// behind a busy partition when Close begins are refused with ErrClosed and
// never applied; writers racing Close on the other partition get nil or
// ErrClosed; and after a reopen every write that returned nil is there and
// no refused one is.
func TestWriteGroupAcrossClose(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.Partitions = 2
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	var queued, racing []int // keys of partition 0 and 1
	for i := 0; len(queued) < 16 || len(racing) < 64; i++ {
		if db.PartitionOf(key(i)) == 0 {
			queued = append(queued, i)
		} else {
			racing = append(racing, i)
		}
	}
	queued, racing = queued[:16], racing[:64]

	// Four racers loop over their own quarter of the racing keys; acked[k]
	// is the iteration whose value key k last returned nil with (-1: none).
	acked := make(map[int]int)
	for _, k := range racing {
		acked[k] = -1
	}
	var mu sync.Mutex
	var acks atomic.Int64
	var rw sync.WaitGroup
	for r := 0; r < 4; r++ {
		rw.Add(1)
		go func() {
			defer rw.Done()
			mine := racing[r*16 : (r+1)*16]
			for iter := 0; ; iter++ {
				k := mine[iter%len(mine)]
				_, err := db.Put(key(k), val(iter, 128))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("racing put across Close: %v, want nil or ErrClosed", err)
					}
					return
				}
				mu.Lock()
				acked[k] = iter
				mu.Unlock()
				acks.Add(1)
			}
		}()
	}
	for acks.Load() < 200 {
		runtime.Gosched()
	}

	p := db.parts[0]
	p.mu.Lock()
	errs := make([]error, len(queued))
	var qw sync.WaitGroup
	for i, k := range queued {
		qw.Add(1)
		go func() {
			defer qw.Done()
			_, errs[i] = db.Put(key(k), val(k, 128))
		}()
	}
	waitQueued(t, p, len(queued))
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	for !db.closed.Load() {
		runtime.Gosched()
	}
	p.mu.Unlock()
	qw.Wait()
	rw.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("put of key %d queued when Close began = %v, want ErrClosed", queued[i], err)
		}
	}

	o = durableOptions(dir)
	o.Partitions = 2
	db, err = Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range queued {
		if _, tier, _, _ := db.Get(key(k)); tier != TierMiss {
			t.Fatalf("refused put of key %d is present after reopen", k)
		}
	}
	for k, iter := range acked {
		v, tier, _, err := db.Get(key(k))
		switch {
		case err != nil:
			t.Fatal(err)
		case iter < 0 && tier != TierMiss:
			t.Fatalf("key %d was never acknowledged but is present after reopen", k)
		case iter >= 0 && !bytes.Equal(v, val(iter, 128)):
			t.Fatalf("key %d after reopen = %.8q, want its last acknowledged value %.8q", k, v, val(iter, 128))
		}
	}
}

// TestWriteGroupAcrossDegrade: writes queued behind a busy partition when
// the DB degrades are refused with ErrReadOnly by the batch gate, and none
// of them is logged or applied.
func TestWriteGroupAcrossDegrade(t *testing.T) {
	db, err := Open(durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	p := db.parts[0]
	p.mu.Lock()
	errs := make([]error, 16)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = db.Put(key(i), val(i, 128))
		}()
	}
	waitQueued(t, p, len(errs))
	records := db.dur.wal.Stats().Records
	db.health.degrade("test", errors.New("injected"))
	p.mu.Unlock()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("queued put %d across a degrade = %v, want ErrReadOnly", i, err)
		}
		if _, tier, _, _ := db.Get(key(i)); tier != TierMiss {
			t.Fatalf("refused put %d was applied", i)
		}
	}
	if got := db.dur.wal.Stats().Records; got != records {
		t.Fatalf("WAL records %d -> %d across refused writes, want none logged", records, got)
	}
	db.Close()
}

// TestWriteGroupStalledLeader: a leader parked in admitWrite's hard stall
// holds its followers' intents in its batch [K=v1, fresh key that stalls,
// K=v2], one submission each. No writer returns while the batch is parked,
// no intent is applied twice, and log order is apply order: after a crash K
// recovers as v2.
func TestWriteGroupStalledLeader(t *testing.T) {
	dir := t.TempDir()
	v1, v2, fresh := val(71, 256), val(72, 256), val(1000, 256)
	db, release, done := stalledLeader(t, dir,
		[]KV{{Key: key(3), Value: v1}}, []KV{{Key: key(1000), Value: fresh}}, []KV{{Key: key(3), Value: v2}})
	select {
	case its := <-done:
		t.Fatalf("a writer of %q returned while its batch was parked", its[0].key)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for range 3 {
		for _, it := range <-done {
			if it.err != nil {
				t.Fatal(it.err)
			}
			if err := db.dur.wal.WaitDurable(it.lsn); err != nil {
				t.Fatal(err)
			}
			putIntent(it)
		}
	}
	if st := db.Stats(); st.Puts != 8+3 {
		t.Fatalf("Puts = %d after 8 preloaded and 3 queued writes, want 11 — an intent applied twice or never", st.Puts)
	}
	db.crashDurable()

	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, _, _, err := db.Get(key(3)); err != nil || !bytes.Equal(v, v2) {
		t.Fatalf("after crash K = %.8q (err %v), want the batch's later write %.8q", v, err, v2)
	}
	if v, _, _, err := db.Get(key(1000)); err != nil || !bytes.Equal(v, fresh) {
		t.Fatalf("after crash the stalled fresh insert = %.8q (err %v)", v, err)
	}
}

// TestReadYourWrites pins the ack contract every write path must preserve: the
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
