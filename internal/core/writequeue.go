package core

import (
	"sync"
	"time"

	"github.com/prismdb/prismdb/internal/storage"
)

// This file holds the write path. Every mutation — Put, Delete, PutBatch,
// their traced forms, a replayed WAL record — is a writeIntent, and every
// intent is applied by one function, applyLocked: a slice of intents becomes
// ONE critical section under p.mu with one clock sync, one read-state fold,
// each mutation body in order, ONE WAL group append (so the engine batch and
// the group-commit fsync are the same unit) and one view republication —
// preserving read-your-writes and the slab-write-before-WAL-append ordering.
// The batch's unlogged records and its republish flag travel as an argument
// (pendingBatch), not as partition state: whenever the lock is released in
// mid-batch (admitWrite's hard stall) the batch is flushed first, so whoever
// takes the lock finds log order equal to apply order and brings its own.
//
// partition.submit decides who applies a batch, with no goroutine of its own
// (the write group of LevelDB and RocksDB):
//
//   - Uncontended (the lock free and nothing queued): the submission is one
//     batch, applied on its caller.
//   - Contended: the submission joins the partition's queue of intents
//     (p.pending) as one run, and its caller takes p.mu. If an earlier leader
//     has applied its intents, it returns; otherwise it leads, applying up to
//     maxWriteBatch intents from the front of the queue as one batch, whoever
//     submitted them, until its own run is applied.
//
// One PutBatch's pairs for a partition are ONE submission, in batch order,
// and the queue keeps a run in order: while a led batch is parked in
// admitWrite with the lock released, no other leader takes the next one, so
// the cap never lets a run's later part apply before its earlier part. A
// concurrent burst pays the partition's fixed costs once per batch rather
// than once per op (the repo benchmark's core.write_batch_p50/p99 on
// serve-mixed-durable). Virtual-time latency composition does not depend on
// who applied a batch: intents are applied in order on the partition clock,
// and each is billed exactly the interval its own mutation consumed.

// maxWriteBatch caps how many queued intents a leader applies per critical
// section, bounding the lock hold and the WAL group a single fsync must
// cover.
const maxWriteBatch = 128

// Write intent opcodes.
const (
	intentPut byte = iota
	intentDel
)

// writeIntent is one framed mutation and its results. The submitter owns
// key/value until submit returns; nothing on the apply side touches the
// intent after that, so the submitter can recycle it through intentPool.
type writeIntent struct {
	op    byte
	key   []byte
	value []byte

	// internal marks a replayed WAL record: applied like any other intent
	// but not logged again, and a replayed put neither counts as a client
	// Put nor touches the popularity tracker.
	internal bool

	// tr, set only for sampled ops (obs tracer), receives the stage timings
	// (tr.enqAt anchors the queue wait). nil on the untraced hot path.
	tr *OpTrace

	// lat, lsn and err are the results; lsn stays 0 when the op logged
	// nothing (an error path, an in-memory DB, replay).
	lat time.Duration
	lsn uint64
	err error
}

var intentPool = sync.Pool{New: func() any { return new(writeIntent) }}

func getIntent() *writeIntent { return intentPool.Get().(*writeIntent) }

func putIntent(it *writeIntent) {
	it.key, it.value = nil, nil // drop caller-buffer refs before pooling
	it.tr, it.internal = nil, false
	it.lat, it.lsn, it.err = 0, 0, nil
	intentPool.Put(it)
}

// submit applies intents — all for this partition, in the order they must
// apply — and returns once every one of them has been applied (their
// results are in the intents; DB.await collects them).
func (p *partition) submit(intents []*writeIntent) {
	p.pendMu.Lock()
	idle := len(p.pending) == 0
	p.pendMu.Unlock()
	if idle && p.mu.TryLock() {
		p.applyLocked(intents, len(intents))
		p.mu.Unlock()
		return
	}
	for _, it := range intents {
		if it.tr != nil {
			it.tr.enqAt = time.Now()
		}
	}
	// The run occupies queue positions [lo, hi): p.taken counts the intents
	// ever taken from the front.
	p.pendMu.Lock()
	hi := p.taken + uint64(len(p.pending)+len(intents))
	lo := hi - uint64(len(intents))
	p.pending = append(p.pending, intents...)
	p.pendMu.Unlock()
	p.mu.Lock()
	p.stats.ProducerParks++
	var batch [maxWriteBatch]*writeIntent
	for p.applied < hi {
		if p.applied < p.taken {
			// The batch in flight is parked in admitWrite with the lock
			// released; taking the next one could apply a later part of a
			// run it cut before the earlier part.
			p.groupCond.Wait()
			continue
		}
		// Nothing in flight and the run not all applied: its tail is queued.
		p.pendMu.Lock()
		head := p.taken
		n := copy(batch[:], p.pending)
		rest := copy(p.pending, p.pending[n:])
		clear(p.pending[rest:])
		p.pending = p.pending[:rest]
		p.taken += uint64(n)
		p.pendMu.Unlock()
		own := 0
		if end := head + uint64(n); lo < end {
			own = int(min(hi, end) - max(lo, head))
		}
		p.applyLocked(batch[:n], own)
		p.applied = p.taken
		p.groupCond.Broadcast()
	}
	p.mu.Unlock()
}

// pendingBatch is the state of one batch while it is being applied: the WAL
// records its mutations have queued but not yet appended, with the intent
// that owns each (owners[i] logged recs[i] and receives its LSN), whether a
// mutation changed the B-tree or manifest since the last view publication,
// and whether any intent is traced (only then is the group append timed). It
// lives on applyLocked's stack and is threaded through the mutation bodies
// and admitWrite as an argument; the partition only keeps the two slices'
// capacity between batches.
type pendingBatch struct {
	recs   []storage.BatchEntry
	owners []*writeIntent
	dirty  bool
	traced bool
}

// logOp queues the WAL record of the intent's mutation into b's pending group. It
// must follow every slab write the mutation issued (prismvet's walorder
// checks that): the group is appended in queue order at b's next flush. A
// no-op for in-memory DBs and replayed records.
func (p *partition) logOp(b *pendingBatch, op byte, it *writeIntent) {
	if p.wal == nil || it.internal {
		return
	}
	b.recs = append(b.recs, storage.BatchEntry{Op: op, Key: it.key, Value: it.value})
	b.owners = append(b.owners, it)
}

// flushLocked appends b's queued records as one WAL group — in SyncEvery
// mode they share one fsync — hands each owning intent its LSN (the barrier
// DB.await waits on) or the append's error, and republishes the read view if
// the batch changed it: before any submitter is released, so a GET issued
// after an op returns always observes it. Runs at the end of every batch and
// before admitWrite parks; this is the only place the engine appends to the
// WAL. A traced intent is billed the group append's full duration (group
// commit makes the whole append its op's durability prerequisite).
func (p *partition) flushLocked(b *pendingBatch) {
	if len(b.recs) > 0 {
		var w0 time.Time
		if b.traced {
			w0 = time.Now()
		}
		first, err := p.wal.AppendBatch(b.recs)
		for i, it := range b.owners {
			if err != nil {
				it.err = err
			} else {
				it.lsn = first + uint64(i)
			}
			if it.tr != nil {
				it.tr.WALAppend = time.Since(w0)
			}
		}
		clear(b.recs) // drop caller-buffer refs
		clear(b.owners)
		b.recs, b.owners = b.recs[:0], b.owners[:0]
	}
	if b.dirty {
		p.publishView()
		b.dirty = false
	}
}

// applyLocked is the write path: it applies intents, in order, as one batch
// on the partition clock. The caller holds p.mu; own of the intents are the
// caller's own submission (DirectWrites). The gate fails the whole batch
// before any slab or WAL state is touched — with ErrClosed once Close has
// begun, with the typed read-only error while the DB is degraded — none of
// it was acknowledged, so refusing is correct.
func (p *partition) applyLocked(intents []*writeIntent, own int) {
	if err := p.writeGate(); err != nil {
		for _, it := range intents {
			it.err = err
		}
		return
	}
	p.syncClockLocked()
	if p.opts.WriteMode == WriteSync {
		// Folding on every batch (of one, from the serial driver) keeps that
		// driver bit-exact.
		p.drainReadsLocked()
	} else {
		p.writerDrainLocked()
	}
	b := pendingBatch{recs: p.recScratch, owners: p.ownerScratch}
	for _, it := range intents {
		var a0 time.Time
		if it.tr != nil {
			b.traced = true
			a0 = time.Now()
			if !it.tr.enqAt.IsZero() {
				it.tr.QueueWait = a0.Sub(it.tr.enqAt)
			}
		}
		if it.op == intentPut {
			it.lat, it.err = p.putBodyLocked(&b, it, false)
		} else {
			it.lat, it.err = p.delBodyLocked(&b, it)
		}
		if it.tr != nil {
			it.tr.Apply = time.Since(a0)
		}
	}
	p.flushLocked(&b)
	p.recScratch, p.ownerScratch = b.recs, b.owners
	p.stats.WriteBatches++
	p.stats.DirectWrites += int64(own)
	p.batchSizes.Observe(int64(len(intents)))
	p.casMaxVclock(p.clk.Now())
}
