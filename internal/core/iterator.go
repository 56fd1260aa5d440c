package core

import (
	"bytes"
	"container/heap"
	"sort"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
)

// Iterator streams live objects in global key order: the paper's two-level
// iterator (§6) — a B-tree cursor over each partition's NVM index merged
// with block-streaming cursors over its flash SST log, NVM versions
// shadowing flash on ties and tombstones annihilating at the merge point —
// lifted to the DB level with a k-way heap across partitions, so it works
// identically under range and hash partitioning.
//
// Consistency: creation pins, per partition, one manifest snapshot (the
// flash file set, refcounted so compactions cannot delete tables under the
// scan) and one slab epoch (freed NVM slots stay readable and unrecycled,
// and in-place updates go copy-on-write, until the pin releases). The
// iterator therefore observes every key exactly once with the value it had
// at creation, across concurrent puts, deletes, and compaction
// demotions/promotions. Partitions are pinned sequentially, so the
// cross-partition consistency point is creation-ordered per partition, not
// a single global instant — the usual per-shard snapshot semantics.
// Cursors with nothing to contribute (partitions wholly below the start
// key) drop their pins immediately; the rest hold them until Close, during
// which their in-place updates run copy-on-write and their freed slots
// defer reclamation — keep iterators short-lived under write-heavy load.
//
// Clock ownership: the iterator owns a private virtual clock seeded from
// the issuing partition (the partition owning the start key), charges every
// device read and CPU cost of the scan to it, and folds it back into the
// issuing partition's clock at Close. Foreign partitions' worker clocks are
// never advanced — a scan's cost lands entirely on the clock of the worker
// that issued it, so concurrent scans cannot corrupt each other's
// partitions' virtual time.
//
// Key and Value return views valid until the next positioning call (Next,
// Seek, Close); callers that retain them must copy. An Iterator is not safe
// for concurrent use, but any number of Iterators may run concurrently with
// each other and with foreground operations.
type Iterator struct {
	db   *DB
	home *partition
	clk  *simdev.Clock

	curs []*partCursor
	pq   cursorPQ

	// limit, when non-zero, caps each partition's NVM index snapshot at
	// that many entries (Scan's n): bounded scans then copy O(n) instead
	// of O(NVM-resident tail) entries. Exhausting a capped snapshot
	// refills from the live index, so results are never truncated; keys
	// inserted after creation may appear past the cap (documented
	// read-committed tail). limit == 0 snapshots the full tail and is
	// fully consistent.
	limit int

	keyBuf, valBuf []byte
	key, val       []byte
	valid          bool
	err            error
	closed         bool
	startNs        int64
}

// NewIterator returns an iterator positioned at the first live key ≥ start
// (nil = the minimum key). limitHint, when > 0, tells the iterator the
// caller will consume at most that many entries, letting it bound its
// per-partition snapshot work (see Iterator.limit); pass 0 for an unbounded,
// fully snapshot-consistent scan. Callers must Close the iterator to
// release its snapshot pins and to charge the scan's virtual time to the
// issuing partition's clock.
func (db *DB) NewIterator(start []byte, limitHint int) *Iterator {
	if limitHint < 0 {
		limitHint = 0
	}
	if db.closed.Load() {
		// Born failed: Valid is false, Err and Close report ErrClosed, and
		// no pins were taken so Close has nothing to release.
		return &Iterator{db: db, clk: simdev.NewClock(), err: ErrClosed, closed: true}
	}
	it := &Iterator{db: db, limit: limitHint, clk: simdev.NewClock()}
	home := db.parts[0]
	if start != nil {
		home = db.partitionOf(start)
	}
	it.home = home
	home.mu.Lock()
	home.syncClockLocked() // include completed lock-free reads in the seed
	it.clk.AdvanceTo(home.clk.Now())
	it.startNs = it.clk.Now()
	home.stats.Scans++
	home.mu.Unlock()
	db.chargeCPU(it.clk, db.opts.CPU.OpBase)

	it.curs = make([]*partCursor, 0, len(db.parts))
	it.pq = make(cursorPQ, 0, len(db.parts))
	for _, p := range db.parts {
		c := newPartCursor(p, it, start)
		it.curs = append(it.curs, c)
		if c.position() {
			it.pq = append(it.pq, c)
		} else {
			c.release()
		}
	}
	heap.Init(&it.pq)
	it.advance()
	return it
}

// chargeCPU charges CPU work to clk through the shared core pool when one
// is configured (see partition.go's package-level helper).
func (db *DB) chargeCPU(clk *simdev.Clock, d time.Duration) {
	chargeCPU(db.opts.CPUPool, clk, d)
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current key; valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid until the next positioning call.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }

// Next advances to the next live key in global order, reporting whether the
// iterator is still positioned at an entry.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.db.closed.Load() {
		it.fail(ErrClosed)
		return false
	}
	return it.advance()
}

// Seek repositions the iterator at the first live key ≥ start and reports
// whether such a key exists. Seeking within an unbounded iterator's
// original range is a pure snapshot operation; seeking before the creation
// start key (or within a limitHint-bounded iterator) re-reads the live NVM
// index for the new range, while the flash view and slab epoch stay pinned.
func (it *Iterator) Seek(start []byte) bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.db.closed.Load() {
		it.fail(ErrClosed)
		return false
	}
	it.pq = it.pq[:0]
	for _, c := range it.curs {
		c.seek(start)
		if c.position() {
			it.pq = append(it.pq, c)
		} else {
			c.release()
		}
	}
	heap.Init(&it.pq)
	return it.advance()
}

// fail poisons the iterator with err (first error wins), invalidating the
// position. Pins stay held until Close, which releases them as usual — a DB
// closing under an open iterator fails the scan, it does not leak epochs.
func (it *Iterator) fail(err error) {
	it.valid = false
	if it.err == nil {
		it.err = err
	}
}

// advance pops merged entries off the cursor heap until a live one
// surfaces, skipping tombstones (each still costs its merge step).
func (it *Iterator) advance() bool {
	it.valid = false
	cpu := it.db.opts.CPU
	for len(it.pq) > 0 {
		c := it.pq[0]
		key, val, live, err := c.emit()
		it.db.chargeCPU(it.clk, cpu.MergePerKey)
		if err != nil {
			it.err = err
			return false
		}
		if c.position() {
			heap.Fix(&it.pq, 0)
		} else {
			heap.Pop(&it.pq)
		}
		if live {
			it.key, it.val = key, val
			it.valid = true
			return true
		}
	}
	return false
}

// Latency returns the virtual time the scan has consumed so far on the
// issuing clock (creation costs included).
func (it *Iterator) Latency() time.Duration {
	return time.Duration(it.clk.Now() - it.startNs)
}

// Close releases every partition's snapshot pins, recycles the cursor
// buffers, and folds the iterator's virtual clock back into the issuing
// partition's worker clock. It is idempotent and returns Err.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	for _, c := range it.curs {
		c.release()
	}
	h := it.home
	h.mu.Lock()
	h.clk.AdvanceTo(it.clk.Now())
	h.casMaxVclock(h.clk.Now()) // lock-free reads issued next seed past the scan
	h.mu.Unlock()
	return it.err
}

// partCursor is one partition's half of the two-level iterator: a snapshot
// of the NVM index tail (keys alias the B-tree's immutable key slices; the
// slab epoch pin keeps their slots dereferenceable) merged with a chain of
// block-streaming cursors over the pinned manifest snapshot's disjoint
// tables.
type partCursor struct {
	p  *partition
	it *Iterator

	snap *sst.Snapshot

	entries   []nvmEntry
	ni        int
	truncated bool   // entries capped at it.limit; the live index may hold more
	snapFrom  []byte // first key the entry snapshot covers (nil = -∞)
	fromNil   bool   // snapshot taken from the minimum key

	tables []*sst.Table
	tblIdx int
	fIt    sst.Iter
	fOK    bool // fIt holds a table of the current chain

	released bool // pins dropped (exhausted cursor); Seek re-acquires

	cur []byte // current merged key, for heap ordering
}

func newPartCursor(p *partition, it *Iterator, start []byte) *partCursor {
	c := &partCursor{p: p, it: it}
	c.acquire(start)
	return c
}

// acquire takes the cursor's pins (slab epoch + manifest snapshot) and
// positions both levels at the first key ≥ start.
func (c *partCursor) acquire(start []byte) {
	p := c.p
	p.mu.Lock()
	//prismvet:ignore refpair cursor-scoped pin: partCursor.release (called by Iterator.Close and by the merge loop when the cursor is exhausted) is the matching UnpinEpoch
	p.slabs.PinEpoch()
	p.obs.epochPins.Inc()
	c.snap = p.man.Acquire()
	c.collectLocked(start)
	p.mu.Unlock()
	c.released = false
	c.tables = c.snap.Tables()
	c.seekFlash(start)
}

// release drops the cursor's pins early. Iterators release cursors that
// turn out to have nothing to contribute (a partition wholly below the
// start key, or empty), so an open scan only freezes reclamation — and
// only forces copy-on-write updates — on partitions it actually reads.
// Idempotent; Close releases whatever is left.
func (c *partCursor) release() {
	if c.released {
		return
	}
	c.released = true
	p := c.p
	p.mu.Lock()
	p.slabs.UnpinEpoch()
	p.putScanBufLocked(c.entries)
	p.mu.Unlock()
	c.snap.Release()
	c.snap = nil
	c.entries = nil
	c.tables = nil
	c.fOK = false
	c.truncated = false
}

// collectLocked snapshots the NVM index entries ≥ start (capped at
// it.limit when bounded). Caller holds p.mu.
func (c *partCursor) collectLocked(start []byte) {
	limit := c.it.limit
	entries := c.p.takeScanBufLocked()
	if cap(c.entries) > cap(entries) {
		// Re-collections (Seek) keep the buffer they already grew.
		c.p.putScanBufLocked(entries)
		entries = c.entries[:0]
	}
	c.p.index.AscendFrom(start, func(item btree.Item) bool {
		entries = append(entries, nvmEntry{item.Key, slab.Loc(item.Val)})
		return limit == 0 || len(entries) < limit
	})
	c.entries = entries
	c.ni = 0
	c.truncated = limit > 0 && len(entries) == limit
	c.fromNil = start == nil
	c.snapFrom = append(c.snapFrom[:0], start...)
}

// seek repositions both levels at the first key ≥ start. A covered seek
// (unbounded snapshot, start within its range) is a binary search in the
// snapshot; otherwise the NVM entries are re-collected from the live
// index. A cursor whose pins were released (it had nothing to contribute)
// re-pins against the partition's then-current state.
func (c *partCursor) seek(start []byte) {
	if c.released {
		c.acquire(start)
		return
	}
	covered := c.it.limit == 0 &&
		(c.fromNil || (start != nil && bytes.Compare(start, c.snapFrom) >= 0))
	if covered {
		c.ni = sort.Search(len(c.entries), func(i int) bool {
			return bytes.Compare(c.entries[i].key, start) >= 0
		})
	} else {
		c.p.mu.Lock()
		c.collectLocked(start)
		c.p.mu.Unlock()
	}
	c.seekFlash(start)
}

// seekFlash restarts the flash chain at the first table that can hold a
// key ≥ start.
func (c *partCursor) seekFlash(start []byte) {
	c.tblIdx = c.snap.SearchFrom(start)
	c.fOK = false
	c.advanceFlash(start)
}

// advanceFlash chains the block cursor across the snapshot's disjoint
// sorted tables until it is positioned on a record (or the chain ends).
func (c *partCursor) advanceFlash(start []byte) {
	for {
		if c.fOK && (c.fIt.Valid() || c.fIt.Err() != nil) {
			return
		}
		if c.tblIdx >= len(c.tables) {
			c.fOK = false
			return
		}
		c.fIt.Reset(c.tables[c.tblIdx], c.it.clk, start, c.p.opts.ScanPrefetch)
		c.fOK = true
		c.tblIdx++
	}
}

// nvmKey returns the current NVM-side key, refilling a truncated snapshot
// from the live index when it runs dry.
func (c *partCursor) nvmKey() []byte {
	for {
		if c.ni < len(c.entries) {
			return c.entries[c.ni].key
		}
		if !c.truncated {
			return nil
		}
		c.refill()
	}
}

// refill re-snapshots the next batch of NVM entries strictly after the last
// consumed key. Only reachable on limitHint-bounded iterators.
func (c *partCursor) refill() {
	last := c.entries[len(c.entries)-1].key
	limit := c.it.limit
	p := c.p
	p.mu.Lock()
	c.entries = c.entries[:0]
	c.ni = 0
	p.index.AscendFrom(last, func(item btree.Item) bool {
		if bytes.Equal(item.Key, last) {
			return true
		}
		c.entries = append(c.entries, nvmEntry{item.Key, slab.Loc(item.Val)})
		return len(c.entries) < limit
	})
	c.truncated = len(c.entries) == limit
	p.mu.Unlock()
}

func (c *partCursor) flashKey() []byte {
	if c.fOK && c.fIt.Valid() {
		return c.fIt.Record().Key
	}
	return nil
}

func (c *partCursor) flashErr() error {
	if c.fOK {
		return c.fIt.Err()
	}
	return nil
}

// position computes the cursor's current merged key (NVM wins ties),
// reporting whether the cursor still has entries.
func (c *partCursor) position() bool {
	if err := c.flashErr(); err != nil {
		// Surface the error through the next emit.
		c.cur = nil
		return true
	}
	nk := c.nvmKey()
	fk := c.flashKey()
	switch {
	case nk == nil && fk == nil:
		c.cur = nil
		return false
	case fk == nil || (nk != nil && bytes.Compare(nk, fk) <= 0):
		c.cur = nk
	default:
		c.cur = fk
	}
	return true
}

// emit resolves the current position into (key, value, live) and advances
// past the key. A tombstone — or a flash version shadowed by a newer NVM
// one — consumes the key with live=false. Returned slices are either
// B-tree-aliased keys (stable for the cursor's lifetime) or copies in the
// iterator's reusable buffers (stable until the next positioning call).
func (c *partCursor) emit() (key, val []byte, live bool, err error) {
	if ferr := c.flashErr(); ferr != nil {
		return nil, nil, false, ferr
	}
	it := c.it
	nk := c.nvmKey()
	fk := c.flashKey()
	if nk == nil && fk == nil {
		return nil, nil, false, nil
	}
	if fk == nil || (nk != nil && bytes.Compare(nk, fk) <= 0) {
		// NVM side; an equal flash key holds an older version (§6) and is
		// consumed alongside, shadowed by value or tombstone alike.
		if fk != nil && bytes.Equal(nk, fk) {
			c.fIt.Next()
			c.advanceFlash(nil)
		}
		ent := c.entries[c.ni]
		c.ni++
		it.db.chargeCPU(it.clk, c.p.opts.CPU.IndexOp)
		p := c.p
		p.mu.Lock()
		rec, rerr := p.slabs.GetScratch(it.clk, ent.loc)
		if rerr != nil {
			p.mu.Unlock()
			return nil, nil, false, rerr
		}
		if rec.Tombstone {
			p.mu.Unlock()
			return nil, nil, false, nil
		}
		it.valBuf = append(it.valBuf[:0], rec.Value...)
		p.mu.Unlock()
		return ent.key, it.valBuf, true, nil
	}
	r := c.fIt.Record()
	if r.Tombstone {
		c.fIt.Next()
		c.advanceFlash(nil)
		return nil, nil, false, c.flashErr()
	}
	// Views into the block buffer die when the cursor advances: copy out.
	it.keyBuf = append(it.keyBuf[:0], r.Key...)
	it.valBuf = append(it.valBuf[:0], r.Value...)
	c.fIt.Next()
	c.advanceFlash(nil)
	return it.keyBuf, it.valBuf, true, c.flashErr()
}

// cursorPQ is a min-heap of partition cursors ordered by current key.
// Cursors are pointers, so heap.Pop's interface boxing never allocates.
type cursorPQ []*partCursor

func (h cursorPQ) Len() int { return len(h) }
func (h cursorPQ) Less(i, j int) bool {
	return bytes.Compare(h[i].cur, h[j].cur) < 0
}
func (h cursorPQ) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorPQ) Push(x interface{}) { *h = append(*h, x.(*partCursor)) }
func (h *cursorPQ) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
