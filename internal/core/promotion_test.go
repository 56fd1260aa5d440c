package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// promotionOptions is testOptions shaped for driving promotion rounds by
// hand: the read trigger stays off unless the test turns it on,
// the watermark gap leaves a demotion job real room to make, every range is
// a promotion candidate, and buckets are narrower than an SST so the
// hot-flash estimate singles out the range that holds the hot keys.
func promotionOptions() Options {
	o := testOptions()
	o.HighWatermark, o.LowWatermark = 0.95, 0.75
	o.PowerK = 1 << 10
	o.BucketKeys = 16
	return o
}

// fillToHighWatermark tops NVM up with fresh keys from next on until one
// more slot would cross the high watermark, so a promotion has no room.
func fillToHighWatermark(t *testing.T, db *DB, next, vsize int) {
	t.Helper()
	p := db.parts[0]
	probe := sst.Record{Key: key(next), Value: val(next, vsize)}
	for {
		p.mu.Lock()
		room := p.nvmHasRoom(probe, p.opts.HighWatermark)
		p.mu.Unlock()
		if !room {
			return
		}
		if _, err := db.Put(key(next), val(next, vsize)); err != nil {
			t.Fatalf("put %d: %v", next, err)
		}
		next++
	}
}

// heatFlashKeys reads the first want flash-resident keys at or after from
// until the tracker ranks them hot, and folds the reads into the tracker.
func heatFlashKeys(t *testing.T, db *DB, from, want int) []int {
	t.Helper()
	var hot []int
	for i := from; len(hot) < want; i++ {
		_, tier, _, err := db.Get(key(i))
		if err != nil || tier == TierMiss {
			t.Fatalf("get %d: tier %v err %v", i, tier, err)
		}
		if tier == TierFlash {
			hot = append(hot, i)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for _, i := range hot {
			db.Get(key(i))
		}
	}
	p := db.parts[0]
	p.mu.Lock()
	p.syncClockLocked()
	p.drainReadsLocked()
	p.mu.Unlock()
	return hot
}

// nvmResident lists which of keys have an NVM index entry.
func nvmResident(p *partition, keys []int) []int {
	var out []int
	for _, i := range keys {
		if _, ok := p.index.Get(key(i)); ok {
			out = append(out, i)
		}
	}
	return out
}

// tableNames is the manifest's live file set.
func tableNames(p *partition) []string {
	snap := p.man.Acquire()
	defer snap.Release()
	var names []string
	for _, t := range snap.Tables() {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

// TestPromotionRoundCopiesWithoutRewriting drives rounds by hand from NVM
// at the high watermark: the first has no room and arms a demotion; the
// rounds after it promote into the room that demotion made, and — armed
// demotions aside — write nothing to flash and leave the manifest alone.
func TestPromotionRoundCopiesWithoutRewriting(t *testing.T) {
	db, err := Open(promotionOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 2000
	fillUntilCompaction(t, db, n, 400)
	fillToHighWatermark(t, db, n, 400)
	hot := heatFlashKeys(t, db, 0, 12)
	p := db.parts[0]

	p.mu.Lock()
	defer p.mu.Unlock()
	p.promotionRound(p.clk.Now())
	if p.stats.PromoteNoRoom != 1 || p.stats.Promoted != 0 {
		t.Fatalf("round at the high watermark: PromoteNoRoom=%d Promoted=%d, want 1 and 0",
			p.stats.PromoteNoRoom, p.stats.Promoted)
	}
	if low := int64(float64(p.nvmBudget) * p.opts.LowWatermark); p.usage() > low {
		t.Fatalf("armed demotion left usage %d above the low watermark %d", p.usage(), low)
	}

	// The demotion may itself have demoted or dropped some of the hot keys'
	// neighbours; what matters is the next round.
	before, names := p.stats, tableNames(p)
	p.promotionRound(p.clk.Now())
	got := p.stats
	if got.Promoted == before.Promoted {
		t.Fatal("round with room promoted nothing")
	}
	if got.PromoteNoRoom != before.PromoteNoRoom {
		t.Fatalf("round with room for %d keys armed a demotion", len(hot))
	}
	if got.PromotedBytes-before.PromotedBytes != (got.Promoted-before.Promoted)*512 {
		t.Fatalf("PromotedBytes moved %d for %d 512-byte slots",
			got.PromotedBytes-before.PromotedBytes, got.Promoted-before.Promoted)
	}
	if got.FlashBytesWritten != before.FlashBytesWritten {
		t.Fatalf("promotion by copy wrote %d flash bytes", got.FlashBytesWritten-before.FlashBytesWritten)
	}
	if now := tableNames(p); fmt.Sprint(now) != fmt.Sprint(names) {
		t.Fatalf("promotion by copy edited the manifest:\n before %v\n after  %v", names, now)
	}
	if got.ReadTriggeredComps != 2 || got.Compactions-before.Compactions != 1 {
		t.Fatalf("round accounting: ReadTriggeredComps=%d, Compactions moved %d",
			got.ReadTriggeredComps, got.Compactions-before.Compactions)
	}
	// Resident on both tiers: NVM serves the key, the flash version stays,
	// and the buckets count it as overlap, not as a promotion target.
	promoted := nvmResident(p, hot)
	if len(promoted) == 0 {
		t.Fatalf("none of the hot keys %v among the %d promoted", hot, got.Promoted-before.Promoted)
	}
	snap := p.man.Acquire()
	defer snap.Release()
	for _, i := range promoted {
		if tb := snap.Find(key(i)); tb == nil || !tb.MayContain(key(i)) {
			t.Fatalf("promoted key %d lost its flash version", i)
		}
	}
	lo, hi := p.opts.KeyIndex(key(promoted[0])), p.opts.KeyIndex(key(promoted[len(promoted)-1]))+1
	if s := p.bkt.Estimate(lo, hi); s.Overlap < 1 {
		t.Fatalf("buckets do not see the keys on both tiers: %+v", s)
	}
}

// TestPromotionSkipsKeyWithNVMVersion: the tracker can call a key
// flash-resident that NVM already holds — a lock-free GET served from flash
// queues its touch, a put lands, and the touch drains after it. The round's
// candidate list is only a hint; the insert re-validates against the index,
// or it would shadow the new value with the old flash version.
func TestPromotionSkipsKeyWithNVMVersion(t *testing.T) {
	db, err := Open(promotionOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillUntilCompaction(t, db, 2000, 400)
	hot := heatFlashKeys(t, db, 0, 12)
	for _, i := range hot {
		if _, err := db.Put(key(i), val(i+1, 400)); err != nil {
			t.Fatal(err)
		}
	}
	p := db.parts[0]
	p.mu.Lock()
	for _, i := range hot {
		p.trk.SetLocation(key(i), tracker.Flash) // the late touch
	}
	p.promotionRound(p.clk.Now())
	conflicts := p.stats.CommitConflicts
	p.mu.Unlock()
	if conflicts == 0 {
		t.Fatal("round never met an NVM-resident candidate; fixture is vacuous")
	}
	for _, i := range hot {
		if v, _, _, _ := db.Get(key(i)); !bytes.Equal(v, val(i+1, 400)) {
			t.Fatalf("key %d: promotion shadowed the newer NVM version", i)
		}
	}
}

// TestPromotionRoundSyncAsyncFidelity runs one promotion round from the
// same state in both compaction modes: it is one implementation, so the
// promoted set and the round's virtual end time must be identical.
func TestPromotionRoundSyncAsyncFidelity(t *testing.T) {
	type outcome struct {
		promoted []int
		endAt    int64
		stats    Stats
	}
	run := func(mode CompactionMode) outcome {
		// Load in sync mode so placement is a pure function of the options,
		// then reopen the same devices in the mode under test.
		o := promotionOptions()
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		fillUntilCompaction(t, db, 2000, 400)
		db.Close()
		o.CompactionMode = mode
		if db, err = Open(o); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		hot := heatFlashKeys(t, db, 0, 12)
		p := db.parts[0]
		p.mu.Lock()
		defer p.mu.Unlock()
		p.promotionRound(p.clk.Now())
		return outcome{nvmResident(p, hot), p.compEndAt, p.stats}
	}
	s, a := run(CompactionSync), run(CompactionAsync)
	if len(s.promoted) == 0 || s.stats.PromoteNoRoom != 0 {
		t.Fatalf("fixture: sync round promoted %v, PromoteNoRoom=%d; want promotions and no armed demotion",
			s.promoted, s.stats.PromoteNoRoom)
	}
	if fmt.Sprint(s.promoted) != fmt.Sprint(a.promoted) {
		t.Fatalf("promoted sets differ:\n sync  %v\n async %v", s.promoted, a.promoted)
	}
	if s.endAt != a.endAt {
		t.Fatalf("round virtual end differs: sync %d async %d", s.endAt, a.endAt)
	}
	if s.stats.PromotedBytes != a.stats.PromotedBytes || s.stats.FlashBytesRead != a.stats.FlashBytesRead ||
		s.stats.CompactionTime != a.stats.CompactionTime {
		t.Fatalf("round stats differ:\n sync  %+v\n async %+v", s.stats, a.stats)
	}
}

// TestReadsAfterReopenIgnoreDrainTiming: the lock-free reads after a reopen
// start where recovery ended, whether or not the first drain of their state
// (a due reader's, which only TRIES the lock) finds the partition lock
// free. Before Open published the recovered clock, the reads up to the first
// successful drain started at zero, so a drain that lost its TryLock to the
// async worker cost the run one read's virtual time — the flake behind
// TestPromotionRoundSyncAsyncFidelity.
func TestReadsAfterReopenIgnoreDrainTiming(t *testing.T) {
	run := func(blockFirstDrain bool) int64 {
		o := promotionOptions()
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		fillUntilCompaction(t, db, 2000, 400)
		db.Close()
		if db, err = Open(o); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		p := db.parts[0]
		if got, want := p.vclock.Load(), p.clk.Now(); got != want {
			t.Fatalf("published frontier %d after reopen, want the recovered clock %d", got, want)
		}
		// Holding the lock makes the first cadence drain's TryLock fail, as
		// a busy worker would; the quiescent partition has no stale view,
		// so no read falls back to the lock.
		if blockFirstDrain {
			p.mu.Lock()
		}
		for i := 0; i < drainEvery; i++ {
			db.Get(key(i))
		}
		if blockFirstDrain {
			p.mu.Unlock()
		}
		for i := drainEvery; i < 4*drainEvery; i++ {
			db.Get(key(i))
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.syncClockLocked()
		return p.clk.Now()
	}
	if drained, skipped := run(false), run(true); drained != skipped {
		t.Fatalf("reads end at %d with the first drain, %d with it skipped", drained, skipped)
	}
}

// TestPromotionRoundTimeExcludesQueueing: a promotion armed while the
// previous compaction job still runs waits for it on the compaction thread,
// and that wait is the earlier job's time, not the round's: CompactionTime
// grows by the round's own span only.
func TestPromotionRoundTimeExcludesQueueing(t *testing.T) {
	db, err := Open(promotionOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillUntilCompaction(t, db, 2000, 400)
	heatFlashKeys(t, db, 0, 12)
	p := db.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	trigger := p.clk.Now()
	busyUntil := max(trigger, p.compEndAt) + int64(time.Second)
	p.compEndAt = busyUntil
	before := p.stats
	p.promotionRound(trigger)
	if p.stats.Promoted == before.Promoted || p.stats.PromoteNoRoom != before.PromoteNoRoom {
		t.Fatalf("fixture: the round promoted %d and armed %d demotions; want promotions and no demotion",
			p.stats.Promoted-before.Promoted, p.stats.PromoteNoRoom-before.PromoteNoRoom)
	}
	span := time.Duration(p.compEndAt - busyUntil)
	if got := p.stats.CompactionTime - before.CompactionTime; span <= 0 || got != span {
		t.Fatalf("CompactionTime grew by %v for a round of %v that waited %v behind the previous job",
			got, span, time.Duration(busyUntil-trigger))
	}
}

// TestLockFreeGetRacesPromotionCommit runs lock-free GETs of the hot keys
// against the async worker's chunked promotion commit, while a writer
// overwrites and deletes neighbouring hot keys in the gaps between chunks.
// Readers must always see a key's current value: the flash copy before its
// chunk publishes, the identical NVM copy after.
func TestLockFreeGetRacesPromotionCommit(t *testing.T) {
	o := promotionOptions()
	o.CompactionMode = CompactionAsync
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 400)); err != nil {
			t.Fatal(err)
		}
	}
	db.DrainCompactions()
	hot := heatFlashKeys(t, db, 0, 40)
	// The writer owns the first 8 hot keys; readers check the other 32,
	// which nothing but the promotion touches.
	owned, stable := hot[:8], hot[8:]

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for j := r; !stop.Load(); j++ {
				i := stable[j%len(stable)]
				v, tier, _, err := db.GetBuf(key(i), buf)
				buf = v
				if err != nil || tier == TierMiss || !bytes.Equal(v, val(i, 400)) {
					t.Errorf("reader %d: key %d tier %v err %v: wrong value", r, i, tier, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for step := 0; !stop.Load(); step++ {
			i := owned[step%len(owned)]
			if step%3 == 2 {
				db.Delete(key(i))
			} else {
				db.Put(key(i), val(i+step, 300))
			}
		}
	}()

	p := db.parts[0]
	for round := 0; round < 20; round++ {
		p.mu.Lock()
		p.triggerPromotion()
		p.mu.Unlock()
		db.DrainCompactions()
	}
	stop.Store(true)
	wg.Wait()
	st := db.Stats()
	if st.Promoted == 0 || st.ReadTriggeredComps == 0 {
		t.Fatalf("no promotion raced the readers: %+v", st)
	}
	for _, i := range stable {
		if v, tier, _, _ := db.Get(key(i)); tier == TierMiss || !bytes.Equal(v, val(i, 400)) {
			t.Fatalf("key %d wrong after the race (tier %v)", i, tier)
		}
	}
}

// copyPromoted opens a durable DB, pushes data to flash, and promotes a hot
// flash working set by copy; it returns the keys now resident on both tiers.
func copyPromoted(t *testing.T, dir string) (*DB, []int) {
	t.Helper()
	o := promotionOptions()
	o.DataDir = dir
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	hot := heatFlashKeys(t, db, 0, 12)
	p := db.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	for round := 0; round < 4 && p.stats.Promoted == 0; round++ {
		p.promotionRound(p.clk.Now()) // the first may only make room
	}
	promoted := nvmResident(p, hot)
	if len(promoted) == 0 {
		t.Fatalf("fixture: nothing promoted: %+v", p.stats)
	}
	return db, promoted
}

// TestDurablePromotedKeySurvivesCrash: a promotion by copy is not logged —
// it needs no durability of its own, because the flash version it copied
// is still in the journaled manifest. Whichever copy a crash leaves must
// serve the key.
func TestDurablePromotedKeySurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, promoted := copyPromoted(t, dir)
	db.crashDurable()

	o := promotionOptions()
	o.DataDir = dir
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkKeys(t, db, 900, 1024, nil)
	// The recovered buckets know a key the slabs still hold is on both tiers.
	p := db.parts[0]
	for _, i := range nvmResident(p, promoted) {
		idx := p.opts.KeyIndex(key(i))
		if s := p.bkt.Estimate(idx, idx+1); s.Tn == 0 || s.Tf == 0 {
			t.Fatalf("key %d recovered on NVM but buckets say %+v", i, s)
		}
	}
}

// TestDurablePromotedThenDeletedStaysDeleted: deleting a key resident on
// both tiers must leave a tombstone over the flash version, and that
// tombstone must keep the key dead through a demotion merge and a reopen.
func TestDurablePromotedThenDeletedStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	db, promoted := copyPromoted(t, dir)
	deleted := map[int]bool{}
	for _, i := range promoted {
		if _, err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		deleted[i] = true
	}
	p := db.parts[0]
	p.mu.Lock()
	for _, i := range promoted {
		v, ok := p.index.Get(key(i))
		if !ok {
			p.mu.Unlock()
			t.Fatalf("deleted key %d left no tombstone over its flash version", i)
		}
		if rec, err := p.slabs.Get(p.clk, slab.Loc(v)); err != nil || !rec.Tombstone {
			p.mu.Unlock()
			t.Fatalf("deleted key %d: NVM holds %+v (err %v), want a tombstone", i, rec, err)
		}
	}
	p.mu.Unlock()
	// Fresh inserts push usage over the high watermark: demotion merges run
	// over the tombstones.
	for i := 900; i < 1400; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	db.DrainCompactions()
	checkKeys(t, db, 1400, 1024, deleted)
	db.crashDurable()

	o := promotionOptions()
	o.DataDir = dir
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkKeys(t, db, 1400, 1024, deleted)
}
