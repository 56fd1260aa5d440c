package core

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// partition.submit decides where a batch runs:
//
//   - WriteSync (no owner goroutine): inline on the caller, under Lock.
//   - WriteAsync, uncontended (intent ring empty and TryLock won): inline on
//     the caller as a direct batch — no handoff, no parking, read state folded
//     on the write cadence (writerDrainLocked) instead of per batch.
//   - WriteAsync, contended: the intents go into a bounded lock-free MPSC ring
//     and the caller blocks on their done signals. The partition's owner
//     goroutine drains up to maxWriteBatch intents, whoever submitted them,
//     takes the lock, applies them as one batch and signals.
//
// One PutBatch's pairs for a partition are ONE submission, in batch order: a
// call split into runs could have a later run take the direct path while an
// earlier one is still with the owner, and the older value would land last.
// Either way a concurrent burst pays the partition's fixed costs once per
// batch rather than once per op (the repo benchmark's core.write_batch_p50/p99
// on serve-mixed-durable).
//
// The ring is the same Vyukov MPSC shape as readview.go's popularity touch
// ring, but lossless: where a full touch ring drops the entry (popularity
// is a heuristic), a full intent ring parks the producer on a condition
// variable until the owner frees slots. Virtual-time latency composition
// does not depend on where a batch ran: intents are applied in order on the
// partition clock, and each is billed exactly the interval its own mutation
// consumed.

const (
	// writeRingSize bounds the per-partition intent ring (power of two).
	writeRingSize = 1024
	// maxWriteBatch caps how many intents the owner applies per critical
	// section, bounding the lock hold and the WAL group a single fsync
	// must cover.
	maxWriteBatch = 128
)

// Write intent opcodes.
const (
	intentPut byte = iota
	intentDel
)

// writeIntent is one framed mutation and its results. The submitter owns
// key/value until the intent completes (for a queued intent, until its done
// signal); nothing on the apply side touches the intent after that, so the
// submitter can recycle it through intentPool.
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

	// queued is set by submit on an intent it put into the ring: await must
	// receive its done signal. lat, lsn and err are the results; lsn stays 0
	// when the op logged nothing (an error path, an in-memory DB, replay).
	queued bool
	lat    time.Duration
	lsn    uint64
	err    error

	done chan struct{} // buffered(1): the owner's send never blocks
}

var intentPool = sync.Pool{New: func() any {
	return &writeIntent{done: make(chan struct{}, 1)}
}}

func getIntent() *writeIntent { return intentPool.Get().(*writeIntent) }

func putIntent(it *writeIntent) {
	it.key, it.value = nil, nil // drop caller-buffer refs before pooling
	it.tr, it.internal, it.queued = nil, false, false
	it.lat, it.lsn, it.err = 0, 0, nil
	intentPool.Put(it)
}

// wqSlot is one ring slot. seq is the Vyukov sequencer: slot i accepts
// producer position pos when seq == pos, publishes at seq == pos+1, and is
// handed to the next lap by the consumer at seq == pos + ring size.
type wqSlot struct {
	seq atomic.Uint64
	it  *writeIntent
}

// writeQueue is the bounded lossless MPSC intent ring plus the producer
// parking and close machinery.
type writeQueue struct {
	ents []wqSlot
	mask uint64
	tail atomic.Uint64 // next producer position
	head atomic.Uint64 // next consumer position (owner only)

	// closed + inflight form the close handshake. Producers increment
	// inflight before checking closed and decrement on the way out, so
	// once the owner observes closed set AND inflight == 0, every intent
	// that will ever be pushed is in the ring — the final drain can fail
	// them all with ErrClosed and no producer is left parked or waiting on
	// a done signal that never comes.
	inflight atomic.Int64
	closed   atomic.Bool

	parks    atomic.Int64 // producers that found the ring full (cumulative)
	parkMu   sync.Mutex
	parkCond *sync.Cond

	// gate, when set (before the owner starts; never mutated after), vetoes
	// new enqueues with a typed error — the DB's read-only degradation
	// check. A parked producer re-evaluates it after every wakeProducers
	// broadcast, so the degrade transition unparks writers the same way
	// Close does instead of leaving them asleep on a ring nobody will
	// drain into a healthy apply again.
	gate func() error

	work chan struct{} // cap 1: owner wakeup
	quit chan struct{}
	done chan struct{} // closed when the owner goroutine exits
}

func newWriteQueue() *writeQueue {
	q := &writeQueue{
		ents: make([]wqSlot, writeRingSize),
		mask: writeRingSize - 1,
		work: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range q.ents {
		q.ents[i].seq.Store(uint64(i))
	}
	q.parkCond = sync.NewCond(&q.parkMu)
	return q
}

// push enqueues an intent, returning false when the ring is full. Never
// blocks, never allocates (compare touchRing.push, which drops on full).
func (q *writeQueue) push(it *writeIntent) bool {
	pos := q.tail.Load()
	for {
		e := &q.ents[pos&q.mask]
		seq := e.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				e.it = it
				e.seq.Store(pos + 1)
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			return false // a full lap behind: ring is full
		default:
			pos = q.tail.Load()
		}
	}
}

// full reports whether the next producer slot is still owned by a previous
// lap — the park predicate, re-checked under parkMu to pair with the
// owner's broadcast-after-drain.
func (q *writeQueue) full() bool {
	pos := q.tail.Load()
	return q.ents[pos&q.mask].seq.Load() < pos
}

// depth approximates the number of queued intents (stats gauge).
func (q *writeQueue) depth() int64 {
	return int64(q.tail.Load() - q.head.Load())
}

// idle reports an empty ring — the gate for the direct (uncontended) write
// fast path. Racy by design: a push landing right after the check just means
// that op takes the lock the slow way or the fast writer and the owner split
// the work, both fine — no ordering guarantee exists between concurrent
// client writes anyway.
func (q *writeQueue) idle() bool {
	return q.tail.Load() == q.head.Load()
}

// enqueue pushes it, parking (not spinning, not dropping) while the ring is
// full. Returns ErrClosed — without having pushed — once the queue closes,
// or the gate's error once the DB degrades; a parked producer is woken by
// the close/degrade broadcast, never leaked.
func (q *writeQueue) enqueue(it *writeIntent) error {
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	for {
		if q.closed.Load() {
			return ErrClosed
		}
		if err := q.gateErr(); err != nil {
			return err
		}
		if q.push(it) {
			q.wake()
			return nil
		}
		q.parks.Add(1)
		q.parkMu.Lock()
		for !q.closed.Load() && q.gateErr() == nil && q.full() {
			q.parkCond.Wait()
		}
		q.parkMu.Unlock()
	}
}

// gateErr evaluates the enqueue gate (nil gate = always open).
func (q *writeQueue) gateErr() error {
	if q.gate == nil {
		return nil
	}
	return q.gate()
}

// wake nudges the owner (non-blocking; the channel holds one token).
func (q *writeQueue) wake() {
	select {
	case q.work <- struct{}{}:
	default:
	}
}

// wakeProducers releases every parked producer. Broadcasting under parkMu
// closes the missed-wakeup window: a producer that saw the ring full either
// parks before this broadcast (and is woken) or re-checks its predicate
// after it (and sees the drained ring / the closed flag).
func (q *writeQueue) wakeProducers() {
	q.parkMu.Lock()
	q.parkCond.Broadcast()
	q.parkMu.Unlock()
}

// drainInto pops up to max published intents (owner only).
func (q *writeQueue) drainInto(batch []*writeIntent, max int) []*writeIntent {
	head := q.head.Load()
	for len(batch) < max {
		e := &q.ents[head&q.mask]
		if e.seq.Load() != head+1 {
			break
		}
		batch = append(batch, e.it)
		e.it = nil
		e.seq.Store(head + uint64(len(q.ents)))
		head++
	}
	q.head.Store(head)
	return batch
}

// failPending completes the close handshake (closed is already set): wake
// and wait out every producer still inside enqueue, then fail everything
// left in the ring with ErrClosed so no waiter hangs on its done signal.
func (q *writeQueue) failPending(batch []*writeIntent) {
	for q.inflight.Load() > 0 {
		q.wakeProducers()
		runtime.Gosched()
	}
	for {
		batch = q.drainInto(batch[:0], maxWriteBatch)
		if len(batch) == 0 {
			return
		}
		for _, it := range batch {
			it.err = ErrClosed
			it.done <- struct{}{}
		}
	}
}

// startWriteOwner creates the partition's intent queue and owner goroutine
// (WriteAsync mode; called once during Open, before client traffic).
func (p *partition) startWriteOwner() {
	p.wq = newWriteQueue()
	p.wq.gate = p.writeGate
	go p.writeOwner()
}

// stopWriteOwner closes the queue and waits for the owner to fail every
// pending intent and exit. Must run BEFORE the compaction worker stops: a
// batch mid-apply may be hard-stalled on the worker's next commit
// (admitWrite), and stopping the worker first would strand it.
func (p *partition) stopWriteOwner() {
	if p.wq == nil {
		return
	}
	q := p.wq
	q.closed.Store(true)
	q.wakeProducers()
	close(q.quit)
	<-q.done
}

// writeOwner is the partition's single-writer loop: drain a batch, apply
// it under the lock, signal its submitters, release any producers parked on
// the full ring, repeat.
func (p *partition) writeOwner() {
	q := p.wq
	defer close(q.done)
	batch := make([]*writeIntent, 0, maxWriteBatch)
	for {
		select {
		case <-q.quit:
			q.failPending(batch[:0])
			return
		case <-q.work:
		}
		// Yield once before draining. The wake send schedules the owner
		// ahead of other runnable goroutines, so draining immediately would
		// collect exactly the one intent of the producer that woke us — a
		// batch of one, forever, with every producer paying a full park and
		// the batch amortizations (one spine copy, one republish, one WAL
		// group) buying nothing. One yield lets the other runnable producers
		// publish their intents first, so the drain below sees a real batch.
		runtime.Gosched()
		for {
			batch = q.drainInto(batch[:0], maxWriteBatch)
			if len(batch) == 0 {
				break
			}
			p.mu.Lock()
			p.applyLocked(batch, false)
			p.mu.Unlock()
			for _, it := range batch {
				it.done <- struct{}{}
			}
			q.wakeProducers()
		}
	}
}

// submit runs intents — all for this partition, in the order they must
// apply — as one batch: inline when there is no owner goroutine (WriteSync)
// or when the ring is idle and the lock is free (the direct path: handing an
// uncontended batch to the owner would buy nothing and cost two scheduler
// handoffs), otherwise through the ring, where batches from many submitters
// coalesce. It returns with every intent either complete or marked queued;
// DB.await collects the results.
func (p *partition) submit(intents []*writeIntent) {
	if p.wq == nil {
		p.mu.Lock()
	} else if !(p.wq.idle() && p.mu.TryLock()) {
		for i, it := range intents {
			if it.tr != nil {
				it.tr.enqAt = time.Now()
			}
			it.queued = true
			if err := p.wq.enqueue(it); err != nil {
				// Closed or degraded: nothing from here on was pushed. The
				// intents already in the ring complete (or are failed by the
				// owner) on their own.
				for _, rest := range intents[i:] {
					rest.queued, rest.err = false, err
				}
				break
			}
		}
		return
	}
	p.applyLocked(intents, true)
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
// on the partition clock. The caller holds p.mu; onCaller says the batch runs
// on its submitter's goroutine rather than the owner's. A degraded DB fails
// the whole batch with the typed read-only error before any slab or WAL
// state is touched — none of it was acknowledged, so refusing is as correct
// as Close's ErrClosed drain.
func (p *partition) applyLocked(intents []*writeIntent, onCaller bool) {
	if err := p.writeGate(); err != nil {
		for _, it := range intents {
			it.err = err
		}
		return
	}
	p.syncClockLocked()
	if onCaller && p.wq != nil {
		// The direct path shares the drain duty the way owner batches do.
		p.writerDrainLocked()
	} else {
		// The owner folds once per batch; WriteSync folds on every batch (of
		// one, from the serial driver), which keeps that driver bit-exact.
		p.drainReadsLocked()
	}
	b := pendingBatch{recs: p.recScratch, owners: p.ownerScratch}
	for _, it := range intents {
		var a0 time.Time
		if it.tr != nil {
			b.traced = true
			a0 = time.Now()
			if it.queued {
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
	p.stats.noteBatch(len(intents), onCaller)
	p.batchSizes.Observe(int64(len(intents)))
	p.casMaxVclock(p.clk.Now())
}
