package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/tracker"
)

// ErrClosed is returned by every operation issued after Close, and surfaced
// through Err/Close by iterators that outlive the DB. Serving front ends
// rely on it for graceful shutdown: once the DB is closed, racing requests
// fail deterministically instead of touching torn-down state.
var ErrClosed = errors.New("prismdb: database closed")

// DB is a PrismDB instance: Options.Partitions shared-nothing partitions
// over one NVM device and one flash device. Methods are safe for concurrent
// use. Mutations serialize on their partition's lock, as in the paper's
// worker-thread-per-partition design; point reads (Get/GetBuf) are
// lock-free against each partition's published read view, so concurrent
// GETs on one hot partition scale with cores instead of queueing on its
// mutex (see the package docs' Concurrency notes in prismdb.go). The public
// prismdb.DB is an alias of this type, so these doc comments are the public
// API's.
type DB struct {
	opts   Options
	parts  []*partition
	dur    *durable // nil without Options.DataDir
	obs    *engineObs
	health *healthTracker
	scrub  *scrubber // nil unless Options.ScrubInterval > 0 (durable mode)
	closed atomic.Bool
}

// Open creates or recovers a DB. If the devices already hold this DB's
// files (slabs, manifests, SSTs), state is rebuilt from them — slab writes
// are synchronous and carry version timestamps, so recovery is a scan per
// partition (§6). With Options.DataDir set, the files are real files: Open
// locks the directory, replays the manifest journal, rebuilds each
// partition from its recovered slab and SST files, replays the WAL tail
// (tolerating a torn final record), and checkpoints — see durable.go.
func Open(opts Options) (*DB, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, obs: newEngineObs(opts.Metrics, opts.Events)}
	db.health = newHealthTracker(db.obs.events)
	if opts.DataDir != "" {
		if err := db.openDurable(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Partitions; i++ {
		p, err := newPartition(i, &db.opts, db.dur, db.obs, db.health, &db.closed)
		if err != nil {
			db.abortOpen()
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		corrupt, err := p.recover()
		if err != nil {
			db.abortOpen()
			return nil, fmt.Errorf("core: recover partition %d: %w", i, err)
		}
		if db.dur != nil {
			db.dur.corruptSlots += int64(corrupt)
		}
		// First view publication: lock-free GETs are served from the moment
		// Open returns. (Single-threaded here, so no lock is needed.) They
		// start where recovery ended, not at zero: left unpublished, the
		// recovered clock would reach them only at the first drain, whose
		// timing depends on who holds the lock.
		p.publishView()
		p.casMaxVclock(p.clk.Now())
		db.parts = append(db.parts, p)
	}
	if opts.CompactionMode == CompactionAsync {
		// Workers start before WAL replay: replayed writes go through the
		// ordinary admission path, which may need a background commit to
		// free space.
		for _, p := range db.parts {
			p.startWorker()
		}
	}
	if db.dur != nil {
		if err := db.finishDurable(); err != nil {
			db.abortOpen()
			return nil, err
		}
	}
	if db.dur != nil && opts.ScrubInterval > 0 {
		db.scrub = db.startScrubber()
	}
	db.registerCollector()
	return db, nil
}

// abortOpen releases whatever a failed Open acquired (the data-directory
// lock, most importantly). It must NOT go through db.Close: closeDurable
// checkpoints the slabs and prunes the WAL, and after a failed replay that
// would delete segments whose records were never applied — the first Open
// fails loudly and the second would silently succeed with acknowledged
// writes gone. Kill drops the WAL without flushing; the segments stay on
// disk for the next Open to replay (or fail on again).
func (db *DB) abortOpen() {
	db.closed.Store(true)
	db.stopBackground()
	if db.dur != nil {
		db.dur.wal.Kill()
		db.dur.dir.Close()
	}
}

// stopBackground stops the background goroutines: the scrubber first (it
// pins reclamation epochs and takes partition locks, and must not race the
// workers' teardown), then every partition's compaction worker, each asked
// to stop before any is waited for. Close, crashDurable and abortOpen all
// stop them here.
func (db *DB) stopBackground() {
	db.stopScrubber()
	for _, p := range db.parts {
		if p.bg.done != nil {
			p.stopWorker()
		}
	}
	for _, p := range db.parts {
		if p.bg.done != nil {
			<-p.bg.done
		}
	}
}

// partitionIndex routes a key to its partition index: range partitioning
// splits the key-index domain evenly; hash partitioning uses an FNV hash
// (for skewed/load-imbalanced workloads, §4.1).
func (db *DB) partitionIndex(key []byte) int {
	n := uint64(len(db.parts))
	if n == 1 {
		return 0
	}
	if db.opts.RangePartitioning {
		idx := db.opts.KeyIndex(key)
		p := idx * n / db.opts.KeySpace
		if p >= n {
			p = n - 1
		}
		return int(p)
	}
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % n)
}

func (db *DB) partitionOf(key []byte) *partition {
	return db.parts[db.partitionIndex(key)]
}

// Put writes key=value and returns the simulated operation latency. While
// the DB is degraded (see Health) it fails fast with ErrReadOnly.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	return db.writeOne(intentPut, key, value, nil, false)
}

// writeOne runs one mutation as a batch of one. tr is non-nil for a sampled
// op; internal marks a replayed WAL record.
func (db *DB) writeOne(op byte, key, value []byte, tr *OpTrace, internal bool) (time.Duration, error) {
	if err := writeGate(&db.closed, db.health); err != nil {
		return 0, err
	}
	it := getIntent()
	it.op, it.key, it.value, it.tr, it.internal = op, key, value, tr, internal
	one := [1]*writeIntent{it}
	db.partitionOf(key).submit(one[:])
	return db.await(one[:])
}

// await collects a call's applied intents: it sums the latencies, keeps the
// first error, recycles the intents, and then — off every lock, so the
// group-commit wait never serializes a partition — blocks until the highest
// LSN any of them logged is durable (SyncEvery mode). LSNs are the shared
// log's, so that one barrier covers them all.
func (db *DB) await(intents []*writeIntent) (time.Duration, error) {
	var total time.Duration
	var lsn uint64
	var err error
	var tr *OpTrace
	for _, it := range intents {
		total += it.lat
		if err == nil {
			err = it.err
		}
		lsn, tr = max(lsn, it.lsn), it.tr
		putIntent(it)
	}
	if lsn == 0 {
		return total, err
	}
	var f0 time.Time
	if tr != nil {
		f0 = time.Now()
	}
	if werr := db.dur.wal.WaitDurable(lsn); err == nil {
		err = werr
	}
	if tr != nil {
		tr.FsyncWait = time.Since(f0)
	}
	return total, err
}

// batchScratch is PutBatch's grouping workspace, pooled so a warm call
// allocates nothing for it: its holds the call's intents grouped by
// partition (batch order within each), end[i] where partition i's run ends.
type batchScratch struct {
	its []*writeIntent
	end []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// PutBatch writes every pair and returns the summed simulated latency of
// the individual writes (the MSET latency model: one batch is billed what
// its ops would have cost serially). All of the call's pairs for one
// partition are ONE submission, in batch order, so a single-partition batch
// is applied as one batch — one critical section, one WAL group append, one
// view republication — which is the RESP pipelined-write fast path's whole
// point; pairs for different partitions are independent writes, exactly as
// if the caller had looped over Put. The server's MSET and pipelined-SET
// fast path ride this. The call returns only after every pair is applied
// (and durable, per Options.WALSync). On error the batch may be partially
// applied; the first error is returned after every intent has completed.
func (db *DB) PutBatch(pairs []KV) (time.Duration, error) {
	if err := writeGate(&db.closed, db.health); err != nil {
		return 0, err
	}
	// Counting sort by partition: run lengths, run starts, then each pair's
	// intent into its run's next slot (which leaves end[i] at run i's end).
	s := batchPool.Get().(*batchScratch)
	s.its = slices.Grow(s.its[:0], len(pairs))[:len(pairs)]
	s.end = slices.Grow(s.end[:0], len(db.parts))[:len(db.parts)]
	clear(s.end)
	for _, kv := range pairs {
		s.end[db.partitionIndex(kv.Key)]++
	}
	at := 0
	for i, n := range s.end {
		s.end[i], at = at, at+n
	}
	for _, kv := range pairs {
		pi := db.partitionIndex(kv.Key)
		it := getIntent()
		it.op, it.key, it.value = intentPut, kv.Key, kv.Value
		s.its[s.end[pi]] = it
		s.end[pi]++
	}
	lo := 0
	for i, hi := range s.end {
		if hi > lo {
			db.parts[i].submit(s.its[lo:hi])
		}
		lo = hi
	}
	total, err := db.await(s.its)
	clear(s.its)
	batchPool.Put(s)
	return total, err
}

// Get returns the value for key, the tier that served the read, and the
// simulated latency. A missing key returns (nil, TierMiss, lat, nil).
func (db *DB) Get(key []byte) ([]byte, Tier, time.Duration, error) {
	return db.GetBuf(key, nil)
}

// GetBuf is Get with a caller-provided value buffer: the value is appended
// to buf[:0] and the resulting slice returned (it aliases buf when buf has
// capacity). Callers that reuse buf across calls make NVM- and
// page-cache-hit reads allocation-free.
func (db *DB) GetBuf(key, buf []byte) ([]byte, Tier, time.Duration, error) {
	if db.closed.Load() {
		return nil, TierMiss, 0, ErrClosed
	}
	return db.partitionOf(key).get(key, buf)
}

// Delete removes key, writing a flash tombstone when needed (§6). While the
// DB is degraded it fails fast with ErrReadOnly.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	return db.writeOne(intentDel, key, nil, nil, false)
}

// Scan returns up to n live objects with keys ≥ start in global key order:
// a thin wrapper draining an Iterator (which see for the consistency and
// clock-ownership model). The start partition is never guessed from
// KeyIndex — every partition's cursor positions itself from its actual
// data, so non-canonical start keys (arbitrary bytes, no embedded index)
// cannot skip partitions under range partitioning.
func (db *DB) Scan(start []byte, n int) ([]KV, time.Duration, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	it := db.NewIterator(start, n)
	out := make([]KV, 0, n)
	for it.Valid() && len(out) < n {
		out = append(out, KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		it.Next()
	}
	err := it.Close()
	if err != nil {
		return nil, 0, err
	}
	return out, it.Latency(), nil
}

// Stats aggregates all partitions' counters plus live object counts and
// the current background-compaction backlog. Taking stats drains each
// partition's read sink, where lock-free GETs leave their counts and
// popularity touches, so the returned figures include every completed GET.
func (db *DB) Stats() Stats {
	s, _ := db.stats()
	return s
}

// stats is Stats plus the partitions' merged batch-size histogram behind
// WriteBatchP50/P99 and the prism_write_batch_ops series.
func (db *DB) stats() (Stats, *metrics.Histogram) {
	var s Stats
	batches := metrics.NewHistogram()
	for _, p := range db.parts {
		p.mu.Lock()
		p.foldReadsLocked()
		ps := p.stats
		nvm, flash := p.objectCounts()
		ps.NVMObjects, ps.FlashObjects = nvm, flash
		ps.CompactionBacklog = 0
		if p.bg.running {
			ps.CompactionBacklog++
		}
		if p.bg.demotePending {
			ps.CompactionBacklog++
		}
		if p.bg.promotePending {
			ps.CompactionBacklog++
		}
		p.pendMu.Lock()
		ps.WriteQueueDepth = int64(len(p.pending))
		p.pendMu.Unlock()
		batches.Merge(p.batchSizes)
		p.mu.Unlock()
		s.add(ps)
	}
	s.WriteBatchP50 = int64(batches.Quantile(0.5))
	s.WriteBatchP99 = int64(batches.Quantile(0.99))
	return s, batches
}

// ResetStats zeroes all partition counters (between warm-up and
// measurement).
func (db *DB) ResetStats() {
	for _, p := range db.parts {
		p.mu.Lock()
		p.foldReadsLocked() // flush, then zero: pending reads don't leak into the next phase
		p.stats = Stats{}
		p.batchSizes = metrics.NewHistogram()
		p.mu.Unlock()
	}
}

// Elapsed returns the simulation's wall clock: the maximum published
// frontier across partitions — each partition's worker clock joined with
// the fold-backs of its completed lock-free reads. In-flight background
// compactions are not included — their effect on foreground time is
// already modeled through device/CPU contention and write admission (a
// workload that outruns compaction stalls on admission, slowing the worker
// clocks themselves).
func (db *DB) Elapsed() time.Duration {
	var maxNs int64
	for _, p := range db.parts {
		if t := p.frontier(); t > maxNs {
			maxNs = t
		}
	}
	return time.Duration(maxNs)
}

// DrainCompactions blocks (in host time) until every partition's
// background compaction worker is idle with nothing queued. Under
// CompactionSync it returns immediately. Tests and harnesses use it to
// reach a settled state; it is safe to call after Close.
func (db *DB) DrainCompactions() {
	for _, p := range db.parts {
		p.mu.Lock()
		p.drainLocked()
		p.mu.Unlock()
	}
}

// AdvanceAll moves every partition clock to at least the global maximum,
// including the completion of all in-flight background compactions (async
// workers are drained first), and matures their reclaimed space. Harnesses
// call this between phases so measurement starts from a settled state with
// a common time origin.
func (db *DB) AdvanceAll() {
	db.DrainCompactions()
	now := int64(db.Elapsed())
	for _, p := range db.parts {
		p.mu.Lock()
		if p.compEndAt > now {
			now = p.compEndAt
		}
		p.mu.Unlock()
	}
	for _, p := range db.parts {
		p.mu.Lock()
		p.clk.AdvanceTo(now)
		p.casMaxVclock(now)
		p.matureCredit(now)
		p.mu.Unlock()
	}
}

// PartitionOf returns the index of the partition serving key. The bench
// harness uses it to route operations to per-partition streams and drive
// the partitions in virtual-time order (discrete-event style, which keeps
// shared-resource queueing causally consistent). It is one of three harness
// accessors, with PartitionClock and Options, that prismdb.DB exposes too.
func (db *DB) PartitionOf(key []byte) int {
	return db.partitionIndex(key)
}

// PartitionClock returns partition i's current published frontier (worker
// clock joined with completed lock-free reads). A harness accessor, like
// PartitionOf.
func (db *DB) PartitionClock(i int) time.Duration {
	return time.Duration(db.parts[i].frontier())
}

// ClockDistribution sums the tracker clock-value histograms across
// partitions (Fig 5).
func (db *DB) ClockDistribution() [tracker.MaxClock + 1]int {
	var d [tracker.MaxClock + 1]int
	for _, p := range db.parts {
		p.mu.Lock()
		pd := p.trk.Distribution()
		p.mu.Unlock()
		for i, n := range pd {
			d[i] += n
		}
	}
	return d
}

// NVMUsage returns the DB's current NVM consumption in bytes and its
// budget.
func (db *DB) NVMUsage() (used, budget int64) {
	for _, p := range db.parts {
		p.mu.Lock()
		used += p.usage()
		p.mu.Unlock()
	}
	return used, db.opts.NVMBudget
}

// Partitions returns the partition count.
func (db *DB) Partitions() int { return len(db.parts) }

// Options returns the effective (defaulted) options. A harness accessor,
// like PartitionOf.
func (db *DB) Options() Options { return db.opts }

// Close marks the DB closed and stops the background compaction workers
// (async mode): each worker finishes the merge round it is in — a round
// always commits or never started, so no half-applied state is left — then
// exits; Close returns once all have. On an in-memory DB there is nothing
// to flush — all state is already "durable" on the simulated devices. On a
// durable DB (Options.DataDir) Close then flushes and fsyncs the WAL,
// checkpoints the slab files, prunes the log, and releases the data
// directory's lock, so a clean shutdown reopens with an empty WAL tail.
// Either way, after Close every operation fails with ErrClosed, new
// iterators are born failed, and open iterators fail on their next
// positioning call (their Close still releases pins normally). Stats,
// Elapsed, and the other read-only accessors keep working, so a
// shutting-down server can still report final counters. Close is
// idempotent.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.stopBackground()
	// From here every batch is refused at its gate. One that passed it
	// before holds p.mu until it has logged, unless admitWrite parked it
	// (the stopped worker has released it since); a parked led batch is
	// waited for here, so it logs before the WAL closes. Writers already
	// past their apply and blocked in WaitDurable resolve when
	// closeDurable's final WAL drain fsyncs.
	for _, p := range db.parts {
		p.mu.Lock()
		for p.applied < p.taken {
			p.groupCond.Wait()
		}
		p.mu.Unlock()
	}
	if db.dur != nil {
		return db.closeDurable()
	}
	return nil
}
