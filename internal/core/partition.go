package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/buckets"
	"github.com/prismdb/prismdb/internal/mapper"
	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/storage"
	"github.com/prismdb/prismdb/internal/tracker"
)

// partition is one shared-nothing shard: a dedicated worker clock, NVM
// slabs indexed by an in-DRAM B-tree, a flash SST log, and the popularity
// machinery. Mutations are serialized by mu (the paper's partition lock);
// point reads never take it — they run against the published read view
// (see readview.go and get below).
type partition struct {
	id   int
	opts *Options

	mu  sync.Mutex
	clk *simdev.Clock

	slabs *slab.Manager
	index *btree.Tree
	man   *sst.Manifest
	trk   *tracker.Tracker
	mpr   *mapper.Mapper
	bkt   *buckets.Map
	rng   *rand.Rand

	nextVersion uint64
	nvmBudget   int64

	// clean holds the keys whose NVM object is a clean copy of its flash
	// version: promoteToNVM marks a key, and every write of it (put, delete,
	// batch, replayed record) and its leaving NVM unmark it. A merge round
	// evicts a clean copy without writing it to flash (see matchClean). The
	// marks live in DRAM only, so a reopened DB starts with none: every NVM
	// object recovers dirty.
	clean map[string]struct{}

	// wal, when the DB is durable, receives one record per client mutation,
	// appended under mu AFTER the slab write (the checkpoint invariant; see
	// durable.go). Nil for in-memory DBs and during WAL replay, making the
	// log machinery invisible to both. Acknowledgement-side durability
	// waits happen in DB.await, off the lock.
	wal *storage.WAL

	// Background-compaction overlap model: data-structure changes apply
	// atomically (reads stay consistent), but the SPACE a job reclaims
	// only becomes admissible when the job's virtual I/O completes.
	// spaceCredit is the admission budget: fresh inserts debit it, client
	// deletes credit it immediately, and each compaction job's freed
	// bytes mature at its compEndAt. Writes that outrun compaction
	// completions stall — the paper's rate limiting (§4.2).
	compEndAt   int64
	compQueue   []compJob
	spaceCredit int64

	rt readTriggerState

	// bg is the compaction thread's state (the conds are tied to mu, and
	// every field is guarded by it). In CompactionAsync mode triggers set a
	// pending flag and signal jobCond; the worker runs the jobs, releasing
	// mu where they allow it, and broadcasts commitCond after each commit
	// chunk and when it idles, waking admission-stalled writers and
	// drainers. In CompactionSync mode the jobs run inline: nothing is ever
	// pending and the conds have no waiters, but a running merge round still
	// publishes its range here.
	bg struct {
		jobCond    *sync.Cond
		commitCond *sync.Cond

		demotePending  bool
		promotePending bool
		running        bool
		stopping       bool

		// Virtual trigger timestamps: a worker-run job's background clock
		// starts where the inline job's does — at the foreground clock of
		// the op that armed it — so virtual-time results do not depend on
		// how quickly the worker goroutine got scheduled.
		demoteTriggerNs  int64
		promoteTriggerNs int64

		// In-flight merge round's key range [lo, hi) (nil = ±∞). While
		// active, a client delete inside it conservatively writes a
		// tombstone even when flash holds no older version: the merge may
		// be about to publish one (see delBodyLocked).
		rangeActive      bool
		rangeLo, rangeHi []byte

		done chan struct{} // closed when the worker goroutine exits
	}

	// merge and rangeBuf are compaction scratch (single compaction thread),
	// reused so that a steady-state round — and above all the worker's
	// LOCKED prepare phase — allocates nothing per round.
	merge    mergeScratch
	rangeBuf []candRange

	// Lock-free read substrate (readview.go): the published read view
	// (atomic.Pointer, republished under mu by tree/manifest mutations),
	// the virtual-clock frontier off-lock reads seed from and fold into,
	// sharded read counters and the popularity touch ring (drained into
	// stats/tracker/read-trigger state by whoever holds mu), the slot-read
	// buffer rack, and the readers' drain-cadence counter.
	view       atomic.Pointer[readView]
	vclock     atomic.Int64
	sink       [sinkShards]readShard
	touches    *touchRing
	readBufs   bufRack
	sinceDrain atomic.Int64

	// Write path (writequeue.go). pending (guarded by pendMu, which is never
	// held while taking mu) is the write group's queue of intents that found
	// the partition busy. taken counts the intents ever taken from its front,
	// written under mu and pendMu both; applied (guarded by mu) counts those
	// whose batch has completed, so a led batch is in flight while
	// applied < taken. groupCond (on mu) is broadcast when one completes.
	// recScratch/ownerScratch only lend CAPACITY to the batch being applied
	// (see pendingBatch): the batch itself is an argument of the apply path,
	// never partition state. wdrain (guarded by mu) is the write path's
	// read-fold cadence counter (writerDrainLocked).
	pendMu       sync.Mutex
	pending      []*writeIntent
	taken        uint64
	applied      uint64
	groupCond    *sync.Cond
	recScratch   []storage.BatchEntry
	ownerScratch []*writeIntent
	wdrain       int

	// obs holds the DB-wide telemetry instruments (shared across
	// partitions; every instrument is lock-free or nil-safe).
	obs *engineObs

	// health is the DB-wide failure-domain state machine and closed the
	// DB's Close flag (both set by Open right after construction; nil only
	// for partitions built directly in tests). Every write batch gates on
	// them (writeGate), and the compaction worker stands down when health
	// leaves Healthy.
	health *healthTracker
	closed *atomic.Bool

	stats Stats
	// batchSizes records each applied write batch's size (guarded by mu,
	// like stats; one per partition so recording never contends). DB.Stats
	// merges them and ResetStats replaces them.
	batchSizes *metrics.Histogram
}

// chargeCPU charges CPU work to clk, through the shared core pool when one
// is configured. Partition workers and DB-level iterators share it.
func chargeCPU(pool *simdev.CPUPool, clk *simdev.Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if pool != nil {
		pool.Charge(clk, d)
	} else {
		clk.Advance(d)
	}
}

func (p *partition) chargeCPU(clk *simdev.Clock, d time.Duration) {
	chargeCPU(p.opts.CPUPool, clk, d)
}

// readTriggerState is the detection → invocation → monitoring machine of
// §5.3.
type readTriggerState struct {
	phase      rtPhase
	opsInPhase int
	reads      int64
	writes     int64
	nvmReads   int64 // reads served from DRAM/NVM this epoch
	flashReads int64
	lastRatio  float64
}

type rtPhase int

const (
	rtDetect rtPhase = iota
	rtActive
	rtCooldown
)

func newPartition(id int, opts *Options, dur *durable, eo *engineObs) (*partition, error) {
	p := &partition{
		id:         id,
		obs:        eo,
		opts:       opts,
		clk:        simdev.NewClock(),
		index:      btree.New(),
		mpr:        mapper.New(opts.PinningThreshold),
		rng:        rand.New(rand.NewSource(opts.Seed + int64(id)*7919)),
		nvmBudget:  opts.NVMBudget / int64(opts.Partitions),
		batchSizes: metrics.NewHistogram(),
	}
	trkCap := opts.TrackerCapacity / opts.Partitions
	if trkCap < 16 {
		trkCap = 16
	}
	p.trk = tracker.New(trkCap)
	p.touches = newTouchRing()
	p.bkt = buckets.New(opts.KeySpace, opts.BucketKeys)
	p.bg.jobCond = sync.NewCond(&p.mu)
	p.bg.commitCond = sync.NewCond(&p.mu)
	p.groupCond = sync.NewCond(&p.mu)

	var err error
	p.slabs, err = slab.NewManager(opts.NVM, opts.Cache, fmt.Sprintf("p%d-slab", id), nil)
	if err != nil {
		return nil, err
	}
	if dur != nil {
		// Durable mode: the live SST set comes from the manifest journal,
		// and opening each table verifies its footer — a table the journal
		// committed but whose file is torn or missing fails Open loudly.
		var tables []*sst.Table
		for _, name := range dur.journal.Live(id) {
			t, terr := sst.Open(opts.Flash, opts.Cache, name, p.clk)
			if terr != nil {
				return nil, fmt.Errorf("manifest journal references %s: %w", name, terr)
			}
			tables = append(tables, t)
		}
		p.man = sst.NewManifestJournaled(opts.Flash, opts.Cache, dur.journal, id, tables)
	} else {
		manName := fmt.Sprintf("p%d-MANIFEST", id)
		if _, openErr := opts.Flash.OpenFile(manName); openErr == nil {
			p.man, err = sst.LoadManifest(opts.Flash, opts.Cache, manName, p.clk)
		} else {
			p.man, err = sst.NewManifest(opts.Flash, opts.Cache, manName)
		}
		if err != nil {
			return nil, err
		}
	}
	p.nextVersion = 1
	return p, nil
}

// recover rebuilds the B-tree index from the slab files (keeping the newest
// version per key and freeing stale duplicate slots), rebuilds bucket
// state, and restores the version counter. Partitions recover independently
// and in parallel in the paper; here each charges its own clock.
func (p *partition) recover() error {
	type liveEntry struct {
		loc slab.Loc
		ver uint64
	}
	seen := map[string]liveEntry{}
	var staleLocs []slab.Loc
	err := p.slabs.Recover(p.clk, func(loc slab.Loc, rec slab.Record) {
		if rec.Version >= p.nextVersion {
			p.nextVersion = rec.Version + 1
		}
		if old, ok := seen[string(rec.Key)]; ok {
			// Crash between new-slot write and old-slot free left two
			// versions; keep the newest.
			if rec.Version > old.ver {
				staleLocs = append(staleLocs, old.loc)
				seen[string(rec.Key)] = liveEntry{loc, rec.Version}
			} else {
				staleLocs = append(staleLocs, loc)
			}
			return
		}
		seen[string(rec.Key)] = liveEntry{loc, rec.Version}
	})
	if err != nil {
		return err
	}
	for _, l := range staleLocs {
		if err := p.slabs.Delete(p.clk, l); err != nil {
			return err
		}
	}
	for k, e := range seen {
		p.index.Insert([]byte(k), uint64(e.loc))
		p.bkt.OnPut(p.opts.KeyIndex([]byte(k)))
	}
	p.spaceCredit = p.nvmBudget - p.usage()
	// Rebuild flash bucket bits from the SST log.
	snap := p.man.Acquire()
	defer snap.Release()
	for _, t := range snap.Tables() {
		err := t.ReadAll(p.clk, func(r sst.Record) error {
			p.bkt.OnDemote(p.opts.KeyIndex(r.Key))
			// OnDemote would clear the NVM bit; restore it if the key is
			// also NVM-resident.
			if _, ok := seen[string(r.Key)]; ok {
				p.bkt.OnPut(p.opts.KeyIndex(r.Key))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// usage returns the partition's NVM consumption: live slab bytes plus the
// flash index/filter metadata PrismDB keeps on NVM (§4.1).
func (p *partition) usage() int64 {
	return p.slabs.LiveBytes() + p.man.MetaBytes()
}

// compJob records a background compaction whose reclaimed space matures at
// endAt.
type compJob struct {
	endAt int64
	freed int64
}

// admitWrite applies the rate-limiting model (§4.2): a space-consuming
// write debits the partition's space credit; compaction reclaim matures at
// each job's virtual completion. When credit runs dry the writer stalls
// until the next job completes — virtually when a committed job's reclaim
// is still maturing, and (async mode only) in host time when the reclaim
// is still inside an uncommitted background merge, so a writer can never
// outrun the worker unboundedly.
//
// That host-time stall is the one place the write path releases p.mu in the
// middle of a batch, so b — the batch being applied — is flushed first: its
// records are appended, its intents get their LSNs and the view goes out.
// Whoever takes the lock during the stall finds a partition whose log order
// equals its apply order and brings its own batch. (What a stalled DELETE's
// own tombstone insert has already removed from NVM is the exception: its DEL
// record cannot exist before the tombstone's slab write. The delete is not
// acknowledged, and a put that overtakes it is logged before it.)
func (p *partition) admitWrite(b *pendingBatch, slotSize int64) {
	p.matureCredit(p.clk.Now())
	hardStalled := false
	var stallStart time.Time
	for p.spaceCredit < slotSize {
		if len(p.compQueue) > 0 {
			p.stallTo(p.compQueue[0].endAt)
			p.matureCredit(p.clk.Now())
			continue
		}
		if (p.bg.running || p.bg.demotePending) && !p.bg.stopping {
			// A background job holds the space this write needs. Block
			// (releasing the partition lock) until its next commit banks
			// reclaim into compQueue, then stall virtually as usual. One
			// write counts as one hard stall however many chunk commits
			// it waits through.
			if !hardStalled {
				hardStalled = true
				stallStart = time.Now()
				p.stats.CompactionHardStalls++
			}
			//prismvet:ignore lockheld admitWrite runs inside putBodyLocked, under the p.mu its caller holds
			p.flushLocked(b)
			t0 := time.Now()
			p.bg.commitCond.Wait()
			p.stats.CompactionHardStallTime += time.Since(t0)
			p.matureCredit(p.clk.Now())
			continue
		}
		// No job can free anything: the bookkept space is authoritative
		// (the watermark trigger will start a job on this very write if
		// needed).
		break
	}
	if hardStalled {
		p.obs.events.Emit("write_stall",
			"partition", p.id, "hard", true, "took_ms", time.Since(stallStart))
	}
	p.spaceCredit -= slotSize
}

// matureCredit banks the reclaim of every job completed by time now.
func (p *partition) matureCredit(now int64) {
	for len(p.compQueue) > 0 && p.compQueue[0].endAt <= now {
		p.spaceCredit += p.compQueue[0].freed
		p.compQueue = p.compQueue[1:]
	}
}

func (p *partition) stallTo(t int64) {
	stall := p.clk.AdvanceTo(t)
	if stall > 0 {
		p.stats.WriteStalls++
		p.stats.WriteStallTime += stall
	}
}

// putBodyLocked is the put mutation body: the intent's key=value, or — tomb
// set, the insert a delete makes for itself — a tombstone for its key. The caller
// (applyLocked, or delBodyLocked for the tombstone) holds p.mu with the clock
// synced; admission may briefly release and re-acquire the lock (see
// admitWrite). Replayed puts and tombstones are internal writes: only a
// client put counts in Puts, touches the popularity tracker and is logged (a
// tombstone is re-derived from its DEL record at replay; replay must not
// re-log). The record is queued after the slab write it describes — the
// ordering the checkpoint scheme depends on (durable.go) — and appended with
// the rest of b's group.
//
// A put that changes the B-tree (fresh insert, class-change move) marks b
// dirty, so the read view is republished at b's next flush: before the
// latency reaches the client, hence a GET issued after a PUT's reply always
// observes it (read-your-writes). In-place slot updates skip the republish:
// the published locations still resolve and readers pick the new bytes
// straight off the slab file.
func (p *partition) putBodyLocked(b *pendingBatch, it *writeIntent, tomb bool) (time.Duration, error) {
	key, value := it.key, it.value
	clientOp := !tomb && !it.internal
	start := p.clk.Now()
	cpu := p.opts.CPU
	p.chargeCPU(p.clk, cpu.OpBase+cpu.IndexOp)

	p.unmarkClean(key)
	rec := slab.Record{Key: key, Value: value, Tombstone: tomb}
	ci := p.slabs.ClassOf(len(key), len(value))
	if ci < 0 {
		return 0, fmt.Errorf("core: object of %d bytes too large", len(key)+len(value))
	}
	idx := p.opts.KeyIndex(key)
	fastInPlace := false
	if v, ok := p.index.Get(key); ok {
		loc := slab.Loc(v)
		if loc.Class() == ci && !p.slabs.Pinned() {
			// In-place updates reuse their slot: no new NVM space is
			// consumed, so they are never rate-limited (§4.1). With an
			// open scan epoch the update instead goes copy-on-write
			// below, so pinned iterators keep their snapshot value.
			rec.Version = p.takeVersion()
			if err := p.slabs.Update(p.clk, loc, rec); err != nil {
				return 0, err
			}
			p.stats.InPlaceUpdates++
			fastInPlace = true
		}
	}
	if !fastInPlace {
		// A new slot will be consumed: class change, copy-on-write under a
		// pinned epoch, or fresh insert. Admission may release the
		// partition lock (async hard stall on an uncommitted merge), so
		// the index is re-consulted — and the version taken — only after
		// it returns: a background commit may have demoted, promoted, or
		// freed this key's slot while the writer was blocked, and stale
		// state here would double-free a recycled slot.
		p.admitWrite(b, int64(p.slabs.ClassSize(ci)))
		rec.Version = p.takeVersion()
		if v, ok := p.index.Get(key); ok {
			loc := slab.Loc(v)
			if loc.Class() == ci && !p.slabs.Pinned() {
				// Became updatable in place while stalled (e.g. the merge
				// holding the epoch pin committed): reuse the slot and
				// refund the admission debit for the slot we won't take.
				p.spaceCredit += int64(p.slabs.ClassSize(ci))
				if err := p.slabs.Update(p.clk, loc, rec); err != nil {
					return 0, err
				}
				p.stats.InPlaceUpdates++
			} else {
				// Changed size class (or pinned epoch): delete + fresh
				// insert (§6). The old slot's space returns to the
				// admission credit immediately.
				oldSlot := int64(p.slabs.SlotSize(loc))
				if err := p.slabs.Delete(p.clk, loc); err != nil {
					return 0, err
				}
				p.spaceCredit += oldSlot
				newLoc, err := p.slabs.Put(p.clk, rec)
				if err != nil {
					return 0, err
				}
				p.index.Insert(key, uint64(newLoc))
				p.stats.SlabMoves++
				b.dirty = true
			}
		} else {
			loc, err := p.slabs.Put(p.clk, rec)
			if err != nil {
				return 0, err
			}
			// The index retains the key slice for the life of the entry
			// (iterator snapshots alias it), so a fresh insert takes a private
			// copy — network callers recycle their argument buffers between
			// commands. Existing-key paths replace only the stored value.
			p.index.Insert(append([]byte(nil), key...), uint64(loc))
			p.bkt.OnPut(idx)
			p.stats.FreshInserts++
			b.dirty = true
		}
	}
	if clientOp {
		// Internal writes (the tombstone a Delete routes through here)
		// must NOT touch the popularity tracker: the delete just Forgot
		// the key, and re-inserting it would evict a live hot key, re-mark
		// the bucket hot, and let ShouldPin pin the tombstone in NVM so it
		// never demotes or annihilates.
		p.touch(key, idx, tracker.NVM)
		p.stats.Puts++
		p.logOp(b, storage.OpPut, it)
	}
	p.maybeCompact()
	p.rt.onOp(p, false)
	return time.Duration(p.clk.Now() - start), nil
}

// markClean records that key's NVM object is a clean copy of its flash
// version. Caller holds p.mu.
func (p *partition) markClean(key []byte) {
	if p.clean == nil {
		p.clean = map[string]struct{}{}
	}
	p.clean[string(key)] = struct{}{}
}

// unmarkClean drops key's clean mark, if it has one. Caller holds p.mu.
func (p *partition) unmarkClean(key []byte) {
	// The lookup converts key without allocating; a delete would not.
	if _, ok := p.clean[string(key)]; ok {
		delete(p.clean, string(key))
	}
}

// writeGate returns ErrClosed once Close has begun, the sticky
// ErrReadOnly-wrapped error while the DB is degraded, and nil otherwise (and
// for partitions built without a DB in tests). Two atomic loads on the hot
// path.
func (p *partition) writeGate() error {
	if p.health == nil {
		return nil
	}
	if p.closed.Load() {
		return ErrClosed
	}
	return p.health.writeErr()
}

// takeVersion hands out the next slab-record version. Taken at write time
// (after any admission stall), so versions per key stay monotone in lock
// order — what crash recovery's keep-the-newest rule depends on.
func (p *partition) takeVersion() uint64 {
	v := p.nextVersion
	p.nextVersion++
	return v
}

// touch updates the tracker and popularity bitmap for an access. The
// tracker stores the key's index and returns the evicted entry's stored
// index, so no key bytes are re-derived (or allocated) on eviction.
func (p *partition) touch(key []byte, idx uint64, loc tracker.Location) {
	if evictedIdx, did := p.trk.Touch(key, idx, loc); did {
		p.bkt.OnCold(evictedIdx)
	}
	p.bkt.OnHot(idx)
}

// getViewRetries bounds how many stale views a lock-free GET burns through
// before falling back to the partition lock. Staleness is proven by slot
// validation (a freed/recycled slot under a view-resolved location); each
// retry re-acquires the then-current view, so only a writer churning the
// same key faster than the reader can re-read keeps failing — at which
// point queueing on the lock is the honest outcome anyway.
const getViewRetries = 4

// get returns the newest version of key and the tier that served it. The
// value is appended to dst (which may be nil): callers that pass a reused
// buffer get an allocation-free NVM read path.
//
// The fast path is lock-free: it never takes p.mu. It acquires the
// partition's published read view (copy-on-write B-tree root + refcounted
// manifest snapshot), seeds a private virtual clock from the partition's
// published frontier, charges all CPU and device time to it, and folds the
// end time back with one atomic max — so serial virtual-time sequencing is
// identical to the locked path, while concurrent GETs overlap in virtual
// time exactly as concurrent requests to a real device would. Read stats
// land in sharded atomic counters and popularity touches in a bounded
// lock-free ring, both drained into the guarded structures by whoever next
// holds the lock (see readview.go for the publication and validation
// rules).
func (p *partition) get(key, dst []byte) ([]byte, Tier, time.Duration, error) {
	idx := p.opts.KeyIndex(key)
	for attempt := 0; attempt < getViewRetries; attempt++ {
		val, tier, lat, err, ok := p.getLockFree(key, dst, idx)
		if ok {
			p.maybeDrainReads()
			return val, tier, lat, err
		}
		// Off the fast path already (stale view), so the retry counter's
		// atomic add costs nothing that matters.
		p.obs.viewRetries.Inc()
	}
	return p.getLocking(key, dst, idx)
}

// getLockFree is one attempt of the lock-free read. ok=false means the
// view was proven stale (the slot under its location was freed, recycled,
// or mid-move) and the caller should retry against a fresh view.
func (p *partition) getLockFree(key, dst []byte, idx uint64) (value []byte, tier Tier, lat time.Duration, err error, ok bool) {
	v := p.acquireView()
	defer v.release()
	var clk simdev.Clock
	start := p.vclock.Load()
	clk.AdvanceTo(start)
	cpu := p.opts.CPU
	p.chargeCPU(&clk, cpu.OpBase+cpu.IndexOp)
	sh := &p.sink[idx&(sinkShards-1)]

	if lv, found := v.tree.Get(key); found {
		h := p.readBufs.take()
		before := clk.Now()
		rec, buf, rerr := p.slabs.ReadSlotInto(&clk, slab.Loc(lv), h.b)
		h.b = buf
		if rerr != nil || !bytes.Equal(rec.Key, key) {
			// Freed (zeroed header), recycled to another key, or otherwise
			// unreadable: the view is stale. The aborted attempt's device
			// time is discarded with its private clock. rerr only matters to
			// getLocking, whose view cannot be stale.
			p.readBufs.put(h)
			return nil, TierMiss, 0, rerr, false
		}
		src := TierNVM
		if clk.Now() == before {
			src = TierDRAM // page-cache hit: no device time
		}
		if rec.Tombstone {
			p.readBufs.put(h)
			sh.gets.Add(1)
			sh.miss.Add(1)
			p.casMaxVclock(clk.Now())
			return nil, TierMiss, time.Duration(clk.Now() - start), nil, true
		}
		value = append(dst[:0], rec.Value...)
		p.readBufs.put(h)
		sh.gets.Add(1)
		if src == TierDRAM {
			sh.dram.Add(1)
		} else {
			sh.nvm.Add(1)
		}
		p.touches.push(key, idx, tracker.NVM)
		p.casMaxVclock(clk.Now())
		return value, src, time.Duration(clk.Now() - start), nil, true
	}

	// Flash lookup through the view's pinned SST snapshot: tables are
	// disjoint and sorted by smallest key, so a binary search finds the
	// single candidate table. The snapshot's tables cannot be deleted while
	// the view holds its reference.
	if t := v.snap.Find(key); t != nil {
		p.chargeCPU(&clk, cpu.BloomCheck)
		if t.MayContain(key) {
			before := clk.Now()
			val, found, tomb, gerr := t.AppendValue(&clk, key, dst[:0])
			if gerr != nil {
				// Count the GET, errored or not, and fold the time it
				// consumed; no tier counter.
				sh.gets.Add(1)
				p.casMaxVclock(clk.Now())
				return nil, TierMiss, 0, gerr, true
			}
			if found && !tomb {
				src := TierFlash
				if clk.Now() == before {
					src = TierDRAM
				}
				sh.gets.Add(1)
				if src == TierDRAM {
					sh.dram.Add(1)
				} else {
					sh.flash.Add(1)
				}
				p.touches.push(key, idx, tracker.Flash)
				p.casMaxVclock(clk.Now())
				return val, src, time.Duration(clk.Now() - start), nil, true
			}
			// The filter said maybe, the table said no (or only a
			// tombstone): a wasted flash probe.
			sh.bloomFP.Add(1)
		}
	}
	sh.gets.Add(1)
	sh.miss.Add(1)
	p.casMaxVclock(clk.Now())
	return nil, TierMiss, time.Duration(clk.Now() - start), nil, true
}

// getLocking is the fallback read, taken when repeated validation failures
// prove the key is being churned faster than an optimistic reader can keep up
// (or, transitively, while an inline compaction job holds the lock and frees
// slots). It is the same lookup run once more, under the partition lock and
// against a view published under it: nothing can free a slot that view
// resolves, so a failed validation now is a real read error.
func (p *partition) getLocking(key, dst []byte, idx uint64) ([]byte, Tier, time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.publishView()
	val, tier, lat, err, ok := p.getLockFree(key, dst, idx)
	if !ok {
		p.stats.Gets++
		if err == nil {
			err = fmt.Errorf("core: slot indexed under %q holds another key", key)
		}
	}
	p.foldReadsLocked()
	return val, tier, lat, err
}

// delBodyLocked is the delete mutation body, called by applyLocked under
// p.mu with the clock synced. NVM versions are deleted directly; if an older
// version may remain on flash a tombstone is inserted to NVM, to die in a
// later merge (§6).
func (p *partition) delBodyLocked(b *pendingBatch, it *writeIntent) (time.Duration, error) {
	key := it.key
	start := p.clk.Now()
	cpu := p.opts.CPU
	p.chargeCPU(p.clk, cpu.OpBase+cpu.IndexOp)
	idx := p.opts.KeyIndex(key)

	if v, ok := p.index.Get(key); ok {
		oldSlot := int64(p.slabs.SlotSize(slab.Loc(v)))
		if err := p.slabs.Delete(p.clk, slab.Loc(v)); err != nil {
			return 0, err
		}
		p.index.Delete(key)
		p.unmarkClean(key)
		p.bkt.OnNVMDelete(idx)
		p.spaceCredit += oldSlot
		b.dirty = true
	}
	// Does flash possibly hold an older version? (Disjoint sorted tables:
	// binary-search the one candidate.) While an async demotion merge
	// covering this key is in flight, the answer must be a conservative
	// yes: the merge may be about to publish an NVM version of the key to
	// flash, and only a tombstone keeps it from resurrecting after the
	// merge commits.
	flashMay := false
	snap := p.man.Acquire()
	if t := snap.Find(key); t != nil {
		p.chargeCPU(p.clk, cpu.BloomCheck)
		flashMay = t.MayContain(key)
	}
	snap.Release()
	if !flashMay && p.bg.rangeActive && inRange(key, p.bg.rangeLo, p.bg.rangeHi) {
		flashMay = true
	}
	p.trk.Forget(key)
	p.bkt.OnCold(idx)
	p.stats.Deletes++
	// The delete's reported latency is composed from its phases' durations:
	// phase 1 (index/slab removal) plus the tombstone insert below. Both run
	// in one critical section, so no interleaved client op can be billed to
	// this delete.
	lat := time.Duration(p.clk.Now() - start)
	if flashMay {
		// Fresh tombstone insert (the normal put path, but as an internal
		// write: it is part of the delete, not a client put, so it never
		// touches the Puts counter or the popularity tracker, and its
		// durability rides on this delete's DEL record rather than a log
		// entry of its own). It runs inline, in the SAME critical section
		// and BEFORE the DEL append: every slab write the delete implies
		// must be issued before its WAL record exists, or a checkpoint
		// racing the gap could prune the only durable trace of this delete
		// while the slab files still lack the tombstone — and a crash would
		// resurrect the key from flash.
		tombLat, err := p.putBodyLocked(b, it, true)
		if err != nil {
			return 0, err
		}
		lat += tombLat
	}
	// One DEL record covers the whole delete, tombstone included: replay
	// re-runs the delete, which re-derives the tombstone decision from the
	// recovered state. Logged after every slab write this delete issues
	// (put's slab-write-before-append ordering), so the log's per-key order
	// equals lock order; the record joins b's group append, which happens
	// after the last slab write of every op queued in it. The NVM slot free
	// itself may still be deferred by a pinned epoch — the DeferredDirty
	// checkpoint barrier (durable.go) keeps this record alive until the
	// zeroing write is issued.
	p.logOp(b, storage.OpDel, it)
	return lat, nil
}

// inRange reports whether key falls in [lo, hi), nil bounds meaning ±∞.
func inRange(key, lo, hi []byte) bool {
	return (lo == nil || bytes.Compare(key, lo) >= 0) &&
		(hi == nil || bytes.Compare(key, hi) < 0)
}

// KV is a scan result element.
type KV struct {
	Key   []byte
	Value []byte
}

// objectCounts reports the records stored per tier; see Stats.NVMObjects.
func (p *partition) objectCounts() (nvm, flash int64) {
	return int64(p.slabs.LiveObjects()), int64(p.man.TotalCount())
}
