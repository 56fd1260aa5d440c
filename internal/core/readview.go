package core

import (
	"sync"
	"sync/atomic"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// This file holds the lock-free GET fast path's substrate: the published
// read view, the partition's atomically published virtual-clock frontier,
// the read sink where GETs leave their counts and popularity touches for the
// next lock holder, and the pool of slot-read buffers. partition.get
// (partition.go) is the consumer.
//
// The publication rule: every partition mutation that changes what a reader
// could observe structurally — a B-tree insert/delete or a manifest change —
// republishes the view under p.mu before the operation returns, pairing the
// copy-on-write B-tree root with a refcounted manifest snapshot. In-place
// slab updates do NOT republish: the view's locations still resolve, and a
// reader picks up the new bytes directly from the (internally synchronized)
// slab file. Within a commit that moves keys between tiers, the manifest
// always installs BEFORE the B-tree entries drop, so any published pairing
// satisfies "tree version ≤ manifest version": a key missing from the
// view's tree is already readable from its snapshot's tables, and a key
// still in the tree shadows whatever the snapshot holds.
//
// The rule read from the other side: whoever takes p.mu, outside a batch
// body, finds the published view's tree equal to the partition's index —
// flushLocked (every batch's end, and before admitWrite parks), commitRound's
// chunk breathers, promotionRound and the scrub quarantine all republish
// before they let go of the lock. An iterator relies on exactly this
// (partCursor.acquire): it pins a slab epoch and takes a reference on the
// published view in one lock hold, so every slot that view's tree locates is
// live at the pin and stays readable until the pin releases. Taking the
// published view rather than a fresh index.Snapshot() also leaves the tree's
// epoch alone, so the next writer does not path-copy a spine per iterator.
//
// Readers never wait for p.mu (a reader whose sink is due for a drain only
// TRIES it). Their safety against slab reclamation is validation, not
// pinning: a slot read through the concurrent slab path is trusted only if
// the decoded record's key equals the requested key. A slot
// freed (zeroed header), recycled to another key, or moved mid-read fails
// validation, which proves the view is stale — the reader re-acquires the
// current view and retries, falling back to the partition lock after a few
// attempts (churn that hot is already serializing on the writer side). A
// recycled slot that holds the SAME key again is, by definition, that key's
// newer value — returning it is linearizable. Slot writes and reads go
// through the slab file's lock, so a reader sees a whole old record or a
// whole new one, never a torn mix.

// readView is one partition's published read view: an immutable
// copy-on-write B-tree snapshot paired with a refcounted manifest snapshot,
// swapped atomically by writers. Acquire/release mirrors sst.Manifest's
// snapshot protocol: the publisher holds one reference until the view is
// superseded, each reader holds one for the duration of a single GET or, for
// an iterator's partition cursor, until the cursor releases its pins.
type readView struct {
	tree *btree.Tree
	snap *sst.Snapshot

	refs  atomic.Int64
	freed atomic.Bool
}

// acquireView returns the current view with a reference taken. Lock-free
// and allocation-free; pair with view.release.
func (p *partition) acquireView() *readView {
	for {
		v := p.view.Load()
		v.refs.Add(1)
		// Validate after incrementing: while the view is still current the
		// publisher's own reference was included in the count we incremented
		// from, so the view is alive and ours. Otherwise it may already be
		// draining — undo and retry on the successor.
		if p.view.Load() == v {
			return v
		}
		v.release()
	}
}

// release drops one reference; the last one releases the manifest snapshot.
// Safe to call from any goroutine without locks (Snapshot.Release is
// internally synchronized), so readers can retire views off-lock.
func (v *readView) release() {
	if v.refs.Add(-1) > 0 {
		return
	}
	// A concurrent acquireView may briefly resurrect the count and release
	// it again; only the first drop-to-zero frees the snapshot.
	if !v.freed.CompareAndSwap(false, true) {
		return
	}
	v.snap.Release()
}

// publishView swaps in a fresh view over the partition's current B-tree
// root and manifest snapshot and retires the old one. Called under p.mu by
// every mutation that changes the tree or the manifest (see the publication
// rule above).
func (p *partition) publishView() {
	nv := &readView{tree: p.index.Snapshot(), snap: p.man.Acquire()}
	nv.refs.Store(1) // the publisher's reference
	p.stats.ViewRepublishes++
	old := p.view.Swap(nv)
	if old != nil {
		old.release()
	}
}

// casMaxVclock publishes t as the partition's virtual-time frontier if it
// is ahead of it. vclock is the partition's monotone published clock: the
// maximum of the worker clock (p.clk, published by lock holders on their
// way out) and every completed off-lock read's private clock. Lock-free
// GETs seed from it and fold their end time back into it, which is what
// keeps serial virtual-time sequencing identical to the locked path: each
// op begins where the previous one ended.
func (p *partition) casMaxVclock(t int64) {
	for {
		cur := p.vclock.Load()
		if t <= cur || p.vclock.CompareAndSwap(cur, t) {
			return
		}
	}
}

// frontier returns the partition's published virtual-time frontier: the
// worker clock joined with every completed lock-free read's fold-back.
// It takes the lock briefly for a consistent worker-clock read; the vclock
// join happens after release (vclock is monotone, so the result is a valid
// frontier at some point during the call).
func (p *partition) frontier() int64 {
	p.mu.Lock()
	t := p.clk.Now()
	p.mu.Unlock()
	if v := p.vclock.Load(); v > t {
		t = v
	}
	return t
}

// syncClockLocked pulls the worker clock up to the published frontier.
// Called on lock entry by every path that charges time to p.clk, so a write
// issued after an off-lock read starts no earlier than that read ended.
func (p *partition) syncClockLocked() {
	p.clk.AdvanceTo(p.vclock.Load())
}

// readCounts are the counters lock-free GETs leave for the next fold: every
// GET, the tier that served it, and filter passes the table then rejected.
type readCounts struct {
	gets, dram, nvm, flash, miss, bloomFP int64
}

// readSink is where lock-free GETs leave what the structures p.mu guards
// must learn of them: their counts and their popularity touches. A GET
// records under the sink's own small lock; whoever holds p.mu drains it
// (drainReadsLocked). mu is never held while taking p.mu.
type readSink struct {
	mu sync.Mutex
	readCounts
	// touches are the queued popularity touches in arrival order, never
	// grown past touchCap: a full list drops new touches rather than make a
	// read wait or allocate. spare is the other list, swapped in at each
	// drain; only the drainer, under p.mu, touches it.
	touches, spare []touchEntry
	// sinceDrain counts the GETs recorded since the last drain: the
	// readers' cadence.
	sinceDrain int
}

// touchEntry is one queued popularity touch, its key stored inline.
type touchEntry struct {
	idx  uint64
	loc  tracker.Location
	klen uint8
	key  [touchKeyMax]byte
}

// touchKeyMax is the largest key a touch stores inline. Longer keys skip
// popularity tracking on the lock-free path (the next LOCKED touch of the
// key records it as usual); keeping the entry fixed-size is what keeps the
// GET path allocation-free.
const touchKeyMax = 48

// touchCap bounds each touch list. Popularity is a heuristic, and the drain
// cadence keeps the list far from full in practice.
const touchCap = 512

// drainEvery is the readers' drain cadence in operations. Small enough that
// read-trigger decisions lag by at most a few dozen ops on read-only
// workloads, large enough that the uncontended TryLock cost is noise.
const drainEvery = 16

// tierNone records a GET that failed: it is counted, on no tier.
const tierNone Tier = -1

// record counts one lock-free GET served from tier, and a wasted filter pass
// if bloomFP, and queues a hit's popularity touch of key at loc. It reports
// whether a drain is due: drainEvery GETs since the last one. (A GET queues
// at most one touch, so a half-full list is always due already.)
func (s *readSink) record(tier Tier, bloomFP bool, key []byte, idx uint64, loc tracker.Location) bool {
	s.mu.Lock()
	s.gets++
	switch tier {
	case TierDRAM:
		s.dram++
	case TierNVM:
		s.nvm++
	case TierFlash:
		s.flash++
	case TierMiss:
		s.miss++
	}
	if bloomFP {
		s.bloomFP++
	}
	hit := tier == TierDRAM || tier == TierNVM || tier == TierFlash
	if n := len(s.touches); hit && len(key) <= touchKeyMax && n < cap(s.touches) {
		s.touches = s.touches[:n+1]
		e := &s.touches[n]
		e.idx, e.loc, e.klen = idx, loc, uint8(len(key))
		copy(e.key[:], key)
	}
	s.sinceDrain++
	due := s.sinceDrain >= drainEvery
	s.mu.Unlock()
	return due
}

// drain empties the sink: in one mu hold it takes the counts and swaps the
// touch lists, then, with mu released so GETs keep recording into the other
// list, it hands each taken touch to fn in arrival order. The caller holds
// p.mu, which serializes drains and guards spare.
func (s *readSink) drain(fn func(e *touchEntry)) readCounts {
	s.mu.Lock()
	c := s.readCounts
	s.readCounts = readCounts{}
	s.sinceDrain = 0
	s.touches, s.spare = s.spare, s.touches
	s.mu.Unlock()
	for i := range s.spare {
		fn(&s.spare[i])
	}
	s.spare = s.spare[:0]
	return c
}

// drainReadsLocked folds the off-lock read state into the structures p.mu
// guards: queued popularity touches into the tracker and buckets, counters
// into p.stats and the read-trigger accumulators, and finally one
// read-trigger step per drained read — so the §5.3 state machine advances
// exactly as if each GET had run it inline, just in batches. Caller holds
// p.mu.
func (p *partition) drainReadsLocked() {
	c := p.sink.drain(func(e *touchEntry) {
		p.touch(e.key[:e.klen], e.idx, e.loc)
	})
	if c.gets == 0 {
		return
	}
	p.stats.Gets += c.gets
	p.stats.GetDRAM += c.dram
	p.stats.GetNVM += c.nvm
	p.stats.GetFlash += c.flash
	p.stats.GetMiss += c.miss
	p.stats.BloomFalsePositives += c.bloomFP
	p.rt.nvmReads += c.dram + c.nvm
	p.rt.flashReads += c.flash
	for i := int64(0); i < c.gets; i++ {
		p.rt.onOp(p, true)
	}
}

// foldReadsLocked brings a lock holder level with the lock-free readers: the
// worker clock up to the published frontier, the off-lock read state into the
// guarded structures, and the frontier up to whatever that charged. Caller
// holds p.mu.
func (p *partition) foldReadsLocked() {
	p.syncClockLocked()
	p.drainReadsLocked()
	p.casMaxVclock(p.clk.Now())
}

// slotBufs lends lock-free GETs their slot-read buffers: the slab manager's
// own scratch belongs to whoever holds p.mu.
var slotBufs = sync.Pool{New: func() any { return new([]byte) }}
