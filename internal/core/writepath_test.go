package core

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/slab"
)

// stalledLeader opens a durable async-compaction DB holding keys 0-7 and
// parks a write-group leader in admitWrite's hard stall: the partition is
// made to look as if a background merge holds all the reclaimable space,
// then each given batch is queued as one submission, in order, and one
// leader takes them all (some pair must be a fresh key). It returns once the
// leader sits in commitCond.Wait with p.mu released; release ends the stall,
// and done receives each batch's intents back as its submission returns.
func stalledLeader(t *testing.T, dir string, batches ...[]KV) (db *DB, release func(), done <-chan []*writeIntent) {
	t.Helper()
	o := durableOptions(dir)
	o.CompactionMode = CompactionAsync
	o.NVMBudget = 8 << 20 // roomy: no real compaction interferes
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustPut(t, db, key(i), val(i, 256))
	}
	p := db.parts[0]
	p.mu.Lock()
	credit := p.spaceCredit
	stalls := p.stats.CompactionHardStalls
	p.bg.running, p.spaceCredit = true, 0
	// p.mu is held, so every submission is queued; the first submitter to
	// take the lock once it is released below leads them all as one batch.
	ch := make(chan []*writeIntent, len(batches))
	queued := 0
	for _, batch := range batches {
		its := make([]*writeIntent, len(batch))
		for i, kv := range batch {
			its[i] = getIntent()
			its[i].op, its[i].key, its[i].value = intentPut, kv.Key, kv.Value
		}
		go func() {
			p.submit(its)
			ch <- its
		}()
		queued += len(its)
		waitQueued(t, p, queued)
	}
	p.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		parked := p.stats.CompactionHardStalls > stalls
		p.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never parked in admitWrite")
		}
		runtime.Gosched()
	}
	release = func() {
		p.mu.Lock()
		p.bg.running, p.spaceCredit = false, credit
		p.bg.commitCond.Broadcast()
		p.mu.Unlock()
	}
	return db, release, ch
}

// waitQueued waits until n intents are queued on p for a batch leader. The
// caller may hold p.mu.
func waitQueued(t *testing.T, p *partition, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.pendMu.Lock()
		queued := len(p.pending)
		p.pendMu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d intents queued, want %d", queued, n)
		}
		runtime.Gosched()
	}
}

// submitOne runs one client mutation through p.submit and DB.await's waiting
// half, keeping the intent's LSN visible to the test.
func submitOne(db *DB, op byte, k, v []byte) (lsn uint64, err error) {
	it := getIntent()
	it.op, it.key, it.value = op, k, v
	db.partitionOf(k).submit([]*writeIntent{it})
	lsn, err = it.lsn, it.err
	putIntent(it)
	if err == nil {
		err = db.dur.wal.WaitDurable(lsn)
	}
	return lsn, err
}

// TestWriteDuringStalledBatchIsLogged is the regression test for the
// acknowledged-but-unlogged write: while a led batch is parked in
// admitWrite with p.mu released, a writer that takes the lock must append
// and wait for its OWN record — not leave it in the parked batch's pending
// group and return LSN 0.
func TestWriteDuringStalledBatchIsLogged(t *testing.T) {
	db, release, done := stalledLeader(t, t.TempDir(),
		[]KV{{Key: key(1000), Value: val(1000, 256)}})
	defer db.Close()
	wal := db.dur.wal

	// An in-place update needs no admission, so it runs right through the
	// stall window.
	before := wal.Stats().Records
	lsn, err := submitOne(db, intentPut, key(3), val(33, 256))
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("Put during a stalled batch was acknowledged with LSN 0: nothing appended, nothing waited for")
	}
	if got := wal.Stats().Records; got != before+1 {
		t.Fatalf("WAL records %d -> %d across the Put, want exactly its own record", before, got)
	}

	// A delete of an NVM-resident key: its DEL record is its own, and the
	// view it returns under no longer resolves the key.
	before = wal.Stats().Records
	lsn, err = submitOne(db, intentDel, key(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 || wal.Stats().Records != before+1 {
		t.Fatalf("Delete during a stalled batch: lsn=%d, WAL records %d -> %d, want its own DEL record",
			lsn, before, wal.Stats().Records)
	}
	if _, found := db.parts[0].view.Load().tree.Get(key(5)); found {
		t.Fatal("Delete returned under a view that still resolves the key")
	}

	release()
	for _, it := range <-done {
		if it.err != nil || it.lsn == 0 {
			t.Fatalf("stalled intent completed with lsn=%d err=%v", it.lsn, it.err)
		}
		putIntent(it)
	}
	if v, tier, _, err := db.Get(key(1000)); err != nil || tier == TierMiss || !bytes.Equal(v, val(1000, 256)) {
		t.Fatalf("stalled fresh insert unreadable after release: tier=%v err=%v", tier, err)
	}
}

// TestStalledBatchLogOrderIsApplyOrder: a led batch [K=v1, fresh key that
// stalls] is overtaken on K during the stall. K=v1 was applied before the
// intruder's v2, so it must be logged before it — the batch flushes before
// it parks — and a crash after the stall recovers K == v2.
func TestStalledBatchLogOrderIsApplyOrder(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := val(71, 256), val(72, 256)
	db, release, done := stalledLeader(t, dir,
		[]KV{{Key: key(3), Value: v1}, {Key: key(1000), Value: val(1000, 256)}})
	if _, err := db.Put(key(3), v2); err != nil {
		t.Fatal(err)
	}
	release()
	for _, it := range <-done {
		if it.err != nil {
			t.Fatal(it.err)
		}
		if err := db.dur.wal.WaitDurable(it.lsn); err != nil {
			t.Fatal(err)
		}
		putIntent(it)
	}
	db.crashDurable()

	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, _, _, err := db.Get(key(3)); err != nil || !bytes.Equal(v, v2) {
		t.Fatalf("after crash K = %.8q (err %v), want the later write %.8q", v, err, v2)
	}
}

// TestStalledDeleteServesNoOverwrittenVersion: a delete whose key has an
// acknowledged NVM version over an older flash version parks its tombstone's
// admission in the hard stall, with p.mu released and the view republished.
// A GET in that window must find the NVM version, never the flash version
// that it overwrote; once the delete returns, the key is gone.
func TestStalledDeleteServesNoOverwrittenVersion(t *testing.T) {
	o := testOptions()
	o.CompactionMode = CompactionAsync
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k, v1, v2 := key(1), val(1, 256), val(2, 256)
	mustPut(t, db, k, v1)
	p := db.parts[0]
	mergeAll(p, true)
	mustPut(t, db, k, v2)

	// As in stalledLeader: the partition looks as if a background merge
	// holds all the space the tombstone needs.
	p.mu.Lock()
	credit := p.spaceCredit
	p.spaceCredit, p.bg.running = -1<<40, true
	p.mu.Unlock()
	deleted := make(chan error, 1)
	go func() {
		_, err := db.Delete(k)
		deleted <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		parked := p.stats.CompactionHardStalls == 1
		p.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the delete's tombstone never parked in admitWrite")
		}
		runtime.Gosched()
	}
	for i := 0; i < 1000; i++ {
		got, _, _, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, v1) {
			t.Fatalf("GET %d during the stalled delete served the overwritten flash version", i)
		}
		if !bytes.Equal(got, v2) {
			t.Fatalf("GET %d during the stalled delete returned %.8q, want the acknowledged %.8q", i, got, v2)
		}
	}

	p.mu.Lock()
	p.spaceCredit, p.bg.running = credit, false
	p.bg.commitCond.Broadcast()
	p.mu.Unlock()
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if got, tier, _, err := db.Get(k); err != nil || tier != TierMiss {
		t.Fatalf("after the delete GET = %.8q tier %v err %v, want a miss", got, tier, err)
	}
}

// TestPutBatchOrderUnderContention: a batch that writes K twice with a pair
// for another partition in between must end with the later value, however
// K's partition is contended while the batch is in flight — all of a
// PutBatch's pairs for one partition are one submission, so its two writes
// of K can never take different routes to the partition.
func TestPutBatchOrderUnderContention(t *testing.T) {
	o := testOptions()
	o.Partitions = 2
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := key(1)
	other := -1
	for i := 2; other < 0; i++ {
		if db.PartitionOf(key(i)) != db.PartitionOf(k) {
			other = i
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps K's partition's lock and write queue busy
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			j := 100 + i%64
			if db.PartitionOf(key(j)) != db.PartitionOf(k) {
				continue
			}
			if _, err := db.Put(key(j), val(j, 128)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	a, b := val(1, 200), val(2, 200)
	batch := []KV{{Key: k, Value: a}, {Key: key(other), Value: val(other, 200)}, {Key: k, Value: b}}
	for round := 0; round < 3000; round++ {
		if _, err := db.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if v, _, _, err := db.Get(k); err != nil || !bytes.Equal(v, b) {
			t.Fatalf("round %d: K = %.8q (err %v) after PutBatch [K=a, other, K=b], want b", round, v, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestPutBatchAllocs guards the grouping's cost: a warm single-partition
// PutBatch allocates no more than the two slices the pre-grouping
// implementation did (its workspace and intents are pooled).
func TestPutBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	o := testOptions()
	o.NVMBudget = 8 << 20
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pairs := make([]KV, 16)
	for i := range pairs {
		pairs[i] = KV{Key: key(i), Value: val(i, 256)}
	}
	if _, err := db.PutBatch(pairs); err != nil { // warm: fresh inserts, pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := db.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm 16-pair PutBatch allocates %.0f times, want <= 2", allocs)
	}
}

// TestLockedGetFallback drives a GET down the locked fallback: the published
// view is made stale on purpose (a slot freed under the lock with no
// republish), so every lock-free attempt fails validation and the read is
// served under p.mu from a fresh view — with the right answer, and counted
// exactly once.
func TestLockedGetFallback(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 8; i++ {
		mustPut(t, db, key(i), val(i, 256))
	}
	p := db.parts[0]
	base := db.Stats()
	retries := func() float64 {
		pt, _ := db.Registry().Gather().Find("prism_read_view_retries_total")
		return pt.Value
	}
	baseRetries := retries()

	// Move key(3) to a new slot behind the view's back: the view still
	// resolves it to the old, now zeroed, slot.
	p.mu.Lock()
	oldLoc, _ := p.index.Get(key(3))
	rec, err := p.slabs.Get(p.clk, slab.Loc(oldLoc))
	if err != nil {
		t.Fatal(err)
	}
	newLoc, err := p.slabs.Put(p.clk, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.slabs.Delete(p.clk, slab.Loc(oldLoc)); err != nil {
		t.Fatal(err)
	}
	p.index.Insert(key(3), uint64(newLoc))
	p.trk.Forget(key(3)) // untracked: one touch re-inserts it at clock 0, a second would raise it
	p.casMaxVclock(p.clk.Now())
	p.mu.Unlock()

	v, tier, _, err := db.Get(key(3))
	if err != nil || !bytes.Equal(v, val(3, 256)) {
		t.Fatalf("fallback GET = %.8q, err %v; want val(3)", v, err)
	}
	if tier != TierDRAM && tier != TierNVM {
		t.Fatalf("fallback GET served from %v, want the NVM-resident copy", tier)
	}
	if got := retries() - baseRetries; got != getViewRetries {
		t.Fatalf("prism_read_view_retries_total rose by %v, want %d", got, getViewRetries)
	}
	st := db.Stats()
	if st.Gets-base.Gets != 1 || (st.GetDRAM+st.GetNVM)-(base.GetDRAM+base.GetNVM) != 1 {
		t.Fatalf("fallback GET counted %d times (%d NVM-tier), want once",
			st.Gets-base.Gets, (st.GetDRAM+st.GetNVM)-(base.GetDRAM+base.GetNVM))
	}
	p.mu.Lock()
	clock, tracked := p.trk.Clock(key(3))
	p.mu.Unlock()
	if !tracked || clock != 0 {
		t.Fatalf("tracker has key(3) tracked=%v clock=%d, want exactly one touch (tracked, clock 0)", tracked, clock)
	}
}

// TestTraceStagesSamePathEveryMode: there is one apply function, whatever
// Options.WriteMode says. A batch that found its partition idle has no
// queue wait, and its WAL group append is measured as WALAppend, not folded
// into Apply.
func TestTraceStagesSamePathEveryMode(t *testing.T) {
	db, err := Open(durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var put, del OpTrace
	if _, err := db.PutTraced(key(1), val(1, 256), &put); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteTraced(key(1), &del); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]OpTrace{"put": put, "delete": del} {
		if tr.QueueWait != 0 || tr.Apply <= 0 || tr.WALAppend <= 0 || tr.FsyncWait <= 0 {
			t.Errorf("traced %s on an idle partition: %+v; want no queue wait and every other stage measured", name, tr)
		}
	}
}
