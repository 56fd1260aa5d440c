package core

import (
	"bytes"
	"container/heap"
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
// Consistency: creation takes, per partition, a reference on the published
// read view a GET resolves through (readview.go: the copy-on-write B-tree
// root paired with a manifest snapshot, refcounted so compactions cannot
// delete tables under the scan) and pins one slab epoch (freed NVM slots stay
// readable and unrecycled, and in-place updates go copy-on-write, until the
// pin releases). The iterator therefore observes every key exactly once with
// the value it had at creation, across concurrent puts, deletes, and
// compaction demotions/promotions, wherever it is sought and however far it
// is drained. Partitions are pinned sequentially, so the cross-partition
// consistency point is creation-ordered per partition, not a single global
// instant — the usual per-shard snapshot semantics.
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

	// slotBuf receives NVM slot reads (an emitted NVM value views it);
	// keyBuf and valBuf hold copies of flash records, whose block-buffer
	// views die when the flash cursor advances.
	slotBuf, keyBuf, valBuf []byte
	key, val                []byte
	valid                   bool
	err                     error
	closed                  bool
	startNs                 int64
}

// NewIterator returns an iterator positioned at the first live key ≥ start
// (nil = the minimum key). Creation is O(partitions) whatever the index
// sizes: each partition's view is a reference, not a copy. The second
// parameter is unused — every iterator is the same snapshot however many
// entries the caller reads — and stays only because server.Engine names it;
// pass 0. Callers must Close the iterator to release
// its snapshot pins and to charge the scan's virtual time to the issuing
// partition's clock.
func (db *DB) NewIterator(start []byte, _ int) *Iterator {
	if db.closed.Load() {
		// Born failed: Valid is false, Err and Close report ErrClosed, and
		// no pins were taken so Close has nothing to release.
		return &Iterator{db: db, clk: simdev.NewClock(), err: ErrClosed, closed: true}
	}
	it := &Iterator{db: db, clk: simdev.NewClock()}
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
		it.curs = append(it.curs, &partCursor{p: p, it: it})
	}
	it.seek(start) // pins each partition on the way, in order
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
// whether such a key exists. Seeking anywhere, the creation start key's
// predecessors included, is a pure snapshot operation on every partition the
// iterator still pins; a partition whose pins it dropped (see
// partCursor.release) is re-pinned at its then-current state.
func (it *Iterator) Seek(start []byte) bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.db.closed.Load() {
		it.fail(ErrClosed)
		return false
	}
	return it.seek(start)
}

// seek positions every partition's cursor at start, rebuilds the heap from
// those with something to contribute and releases the others' pins.
func (it *Iterator) seek(start []byte) bool {
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

// Close releases every partition's snapshot pins and folds the iterator's
// virtual clock back into the issuing partition's worker clock. It is
// idempotent and returns Err.
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

// partCursor is one partition's half of the two-level iterator: a B-tree
// cursor over the view's immutable index (keys alias its stored key slices;
// the slab epoch pin keeps the slots they locate dereferenceable) merged with
// a chain of block-streaming cursors over the view's manifest snapshot's
// disjoint tables.
type partCursor struct {
	p  *partition
	it *Iterator

	view *readView // nil while the cursor holds no pins; seek acquires
	nvm  btree.Cursor

	tblIdx int // next table of the view's snapshot to chain into
	fIt    sst.Iter
	fOK    bool // fIt holds a table of the current chain

	cur []byte // current merged key, for heap ordering
}

// acquire takes the cursor's pins: the slab epoch and a reference on the
// published view, which under p.mu is the partition's current state (the
// publication rule, readview.go), so every slot its tree locates is live at
// the pin. The lock hold is O(1) whatever the tree's size.
func (c *partCursor) acquire() {
	p := c.p
	p.mu.Lock()
	//prismvet:ignore refpair cursor-scoped pin: partCursor.release (called by Iterator.Close, and at positioning time for a cursor with nothing to contribute) closes it with UnpinEpochDeferred
	p.slabs.PinEpoch()
	p.obs.epochPins.Inc()
	c.view = p.acquireView()
	p.mu.Unlock()
	c.nvm = c.view.tree.Cursor()
}

// release drops the cursor's pins early. Iterators release cursors that
// turn out to have nothing to contribute (a partition wholly below the
// start key, or empty), so an open scan only freezes reclamation — and
// only forces copy-on-write updates — on partitions it actually reads.
// Closing the epoch finishes the frees it deferred the way compaction and
// the scrubber do, so a zeroing write that fails degrades the DB.
// Idempotent; Close releases whatever is left.
func (c *partCursor) release() {
	if c.view == nil {
		return
	}
	p := c.p
	p.mu.Lock()
	p.zeroFreed(p.slabs.UnpinEpochDeferred())
	p.mu.Unlock()
	c.view.release()
	c.view = nil
	c.nvm = btree.Cursor{} // its path holds the view's tree
	c.fOK = false
}

// seek positions both levels at the first key ≥ start within the pinned
// view. A cursor holding no pins — a new one, or one released because it had
// nothing to contribute — pins the partition's then-current state first.
func (c *partCursor) seek(start []byte) {
	if c.view == nil {
		c.acquire()
	}
	c.nvm.Seek(start)
	// Restart the flash chain at the first table that can hold a key ≥ start.
	c.tblIdx = c.view.snap.SearchFrom(start)
	c.fOK = false
	c.advanceFlash(start)
}

// advanceFlash chains the block cursor across the snapshot's disjoint
// sorted tables until it is positioned on a record (or the chain ends).
func (c *partCursor) advanceFlash(start []byte) {
	tables := c.view.snap.Tables()
	for {
		if c.fOK && (c.fIt.Valid() || c.fIt.Err() != nil) {
			return
		}
		if c.tblIdx >= len(tables) {
			c.fOK = false
			return
		}
		c.fIt.Reset(tables[c.tblIdx], c.it.clk, start, c.p.opts.ScanPrefetch)
		c.fOK = true
		c.tblIdx++
	}
}

// nvmKey returns the current NVM-side key, nil when the index is exhausted.
func (c *partCursor) nvmKey() []byte {
	if c.nvm.Valid() {
		return c.nvm.Item().Key
	}
	return nil
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
// one — consumes the key with live=false. Returned slices are B-tree-aliased
// keys (stable for the cursor's lifetime), views of the iterator's slot
// buffer, or copies in its flash buffers (stable until the next positioning
// call). The NVM slot is read off the lock, as GET and the compactor read
// slots; the epoch pin keeps its creation-time bytes in place.
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
		ent := c.nvm.Item()
		c.nvm.Next()
		it.db.chargeCPU(it.clk, c.p.opts.CPU.IndexOp)
		rec, buf, rerr := c.p.slabs.ReadSlotInto(it.clk, slab.Loc(ent.Val), it.slotBuf)
		it.slotBuf = buf
		if rerr != nil || rec.Tombstone {
			return nil, nil, false, rerr
		}
		return ent.Key, rec.Value, true, nil
	}
	r := c.fIt.Record()
	if r.Tombstone {
		c.fIt.Next()
		c.advanceFlash(nil)
		return nil, nil, false, c.flashErr()
	}
	// The record is a view that may die when the cursor advances: copy out.
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
