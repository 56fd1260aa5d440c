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
// the lock-free machinery has been exercised concurrently: the buffer pool,
// read sink, and view refcounts must return to an allocation-free steady
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
	for g := 0; g < 8; g++ { // churn the pool and sink from many goroutines
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

// TestReadSinkTouches unit-tests the read sink's touch lists: arrival order,
// inline key copies, drop-when-full while every GET is still counted, the
// oversized-key skip, a GET recorded mid-drain held for the next drain, and
// the two lists reused across drains with no allocation.
func TestReadSinkTouches(t *testing.T) {
	s := readSink{touches: make([]touchEntry, 0, touchCap), spare: make([]touchEntry, 0, touchCap)}
	var got []string
	drain := func(during func()) readCounts {
		return s.drain(func(e *touchEntry) {
			got = append(got, fmt.Sprintf("%s/%d/%d", e.key[:e.klen], e.idx, e.loc))
			if during != nil {
				during()
				during = nil
			}
		})
	}
	// Fill beyond capacity through one reused key buffer: the entries must
	// hold copies, the overflow touches drop, and every GET still counts.
	var kb []byte
	for i := 0; i < touchCap+100; i++ {
		kb = fmt.Appendf(kb[:0], "k%04d", i)
		if due := s.record(TierNVM, false, kb, uint64(i), tracker.NVM); due != (i+1 >= drainEvery) {
			t.Fatalf("GET %d since the last drain: due = %v", i+1, due)
		}
	}
	if c := drain(nil); c != (readCounts{gets: touchCap + 100, nvm: touchCap + 100}) {
		t.Fatalf("counts %+v, want %d NVM GETs", c, touchCap+100)
	}
	if len(got) != touchCap {
		t.Fatalf("drained %d touches, want %d", len(got), touchCap)
	}
	for i, g := range got {
		if want := fmt.Sprintf("k%04d/%d/0", i, i); g != want {
			t.Fatalf("touch %d = %q, want %q", i, g, want)
		}
	}
	if s.record(TierNVM, false, []byte("first"), 0, tracker.NVM) {
		t.Fatal("the first GET after a drain is due")
	}

	// Misses, wasted filter passes and failed GETs count but queue no touch,
	// and an oversized key's touch is skipped.
	got = got[:0]
	s.record(TierMiss, true, []byte("fp"), 1, tracker.Flash)
	s.record(tierNone, false, []byte("failed"), 2, tracker.Flash)
	s.record(TierFlash, false, bytes.Repeat([]byte{'k'}, touchKeyMax+1), 3, tracker.Flash)
	s.record(TierDRAM, false, []byte("cached"), 4, tracker.Flash)
	if c, want := drain(nil), (readCounts{gets: 5, nvm: 1, dram: 1, flash: 1, miss: 1, bloomFP: 1}); c != want {
		t.Fatalf("counts %+v, want %+v", c, want)
	}
	if want := []string{"first/0/0", "cached/4/1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("touches %q, want %q", got, want)
	}

	// GETs recorded while a drain applies its touches go to the other list:
	// the drained list is not handed back to readers before it is applied.
	got = got[:0]
	s.record(TierNVM, false, []byte("a"), 0, tracker.NVM)
	s.record(TierNVM, false, []byte("b"), 1, tracker.NVM)
	drain(func() {
		s.record(TierNVM, false, []byte("late0"), 2, tracker.NVM)
		s.record(TierNVM, false, []byte("late1"), 3, tracker.NVM)
	})
	if want := []string{"a/0/0", "b/1/0"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drain applied %q, want %q", got, want)
	}
	got = got[:0]
	if c := drain(nil); c.gets != 2 || fmt.Sprint(got) != fmt.Sprint([]string{"late0/2/0", "late1/3/0"}) {
		t.Fatalf("next drain: %d GETs, touches %q; want the 2 recorded mid-drain", c.gets, got)
	}

	// The two lists are reused: recording and draining allocate nothing.
	k := []byte("reused")
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < touchCap; i++ {
			s.record(TierNVM, false, k, 1, tracker.NVM)
		}
		s.drain(func(*touchEntry) {})
	})
	if allocs != 0 || cap(s.touches) != touchCap || cap(s.spare) != touchCap {
		t.Fatalf("%.1f allocs per fill and drain, list capacities %d and %d; want 0 and %d",
			allocs, cap(s.touches), cap(s.spare), touchCap)
	}
}

// TestReadSinkConcurrentDrain races lock-free GETs against the sink's
// drainers: four readers issue NVM hits, flash hits and misses while a
// writer loop (every write batch drains) and Stats calls keep draining.
// Every GET must be counted once, on the tier it returned.
func TestReadSinkConcurrentDrain(t *testing.T) {
	o := testOptions()
	o.NVMBudget = 256 << 10 // most of the preload demotes to flash
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 1200
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetStats()

	const readers, perReader = 4, 3000
	var tiers [readers][TierMiss + 1]int64
	var rw, dw sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+2)
	for g := 0; g < readers; g++ {
		rw.Add(1)
		go func(g int) {
			defer rw.Done()
			buf := make([]byte, 0, 1024)
			for i := 0; i < perReader; i++ {
				k := key((g*389 + i*7) % keys)
				if i%5 == 4 {
					k = []byte(fmt.Sprintf("user%08dx", i%keys)) // absent
				}
				v, tier, _, err := db.GetBuf(k, buf)
				if err != nil {
					errCh <- err
					return
				}
				tiers[g][tier]++
				buf = v[:0]
			}
		}(g)
	}
	dw.Add(2)
	go func() { // writer: every batch drains the sink
		defer dw.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := (i * 13) % keys
			if _, err := db.Put(key(k), val(k, 512)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // Stats drains too
		defer dw.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Stats()
		}
	}()
	rw.Wait()
	close(stop)
	dw.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var want [TierMiss + 1]int64
	for g := range tiers {
		for tier, n := range tiers[g] {
			want[tier] += n
		}
	}
	if want[TierNVM]+want[TierDRAM] == 0 || want[TierFlash] == 0 || want[TierMiss] == 0 {
		t.Fatalf("GETs by tier %v: want NVM hits, flash hits and misses", want)
	}
	st := db.Stats()
	if st.Gets != readers*perReader {
		t.Fatalf("Stats().Gets = %d, want the %d GETs issued", st.Gets, readers*perReader)
	}
	if sum := st.GetDRAM + st.GetNVM + st.GetFlash + st.GetMiss; sum != st.Gets {
		t.Fatalf("tier counts sum to %d, want Gets = %d", sum, st.Gets)
	}
	if got := [...]int64{st.GetDRAM, st.GetNVM, st.GetFlash, st.GetMiss}; got != want {
		t.Fatalf("Stats tier counts (DRAM, NVM, flash, miss) %v, want the tiers returned %v", got, want)
	}
}
