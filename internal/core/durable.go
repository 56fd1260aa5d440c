package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/storage"
)

// durable is the DB's persistence state when Options.DataDir is set: the
// locked data directory, the manifest journal, and the write-ahead log.
//
// The durability scheme leans on one invariant the write path maintains:
// an operation's slab write is issued (reaches the OS page cache) before
// its WAL record is appended, both under the partition lock — for deletes
// that includes the inline tombstone insert, and the one write that CAN
// lag (a slot-zeroing free deferred by a pinned epoch) blocks checkpoints
// via the DeferredDirty barrier in syncSlabs. Consequently a checkpoint —
// fsync every slab backing file — makes every WAL record appended so far
// redundant, and all rotated segments can be pruned. There
// is no memtable to flush and no slab-state serialization: the WAL only
// has to cover the window since the last checkpoint, and recovery replays
// it through the ordinary put/del paths (idempotently — the slab state is
// always at least as new as the log, and replay converges on the final
// record per key).
type durable struct {
	dir     *storage.Dir
	journal *storage.Journal
	wal     *storage.WAL

	openedAt     time.Time
	recovery     storage.RecoveryStats
	recoveryTime time.Duration
	orphans      int
	corruptSlots int64 // slab slots recovery freed for failing their CRC
}

// PersistenceStats reports the durability layer's counters; Durable is
// false (and everything zero) for an in-memory DB.
type PersistenceStats struct {
	Durable             bool
	WALBytes            int64
	WALRecords          int64
	WALFsyncs           int64
	WALSegments         int
	GroupCommitBatchP50 int64
	GroupCommitBatchP99 int64
	Checkpoints         int64

	// Fsync latency quantiles from the flusher's lock-free histogram
	// (ROADMAP item 2: data for -wal-sync group tuning).
	FsyncP50 time.Duration
	FsyncP99 time.Duration

	RecoveryDuration           time.Duration
	RecoveryRecords            int64
	RecoverySegments           int
	LastRecoveryTruncatedBytes int64
	OrphanSSTsRemoved          int
	// CorruptSlotsFreed counts the slab slots the last open found failing
	// their CRC (a write torn by a crash, or rot) and freed unserved.
	CorruptSlotsFreed int64
}

// PersistenceStats snapshots the persistence counters; Durable is false
// (and everything zero) when Options.DataDir was not set.
func (db *DB) PersistenceStats() PersistenceStats {
	if db.dur == nil {
		return PersistenceStats{}
	}
	ws := db.dur.wal.Stats()
	fsync, batch := db.obs.fsyncLatency, db.obs.walBatch
	return PersistenceStats{
		Durable:                    true,
		WALBytes:                   ws.Bytes,
		WALRecords:                 ws.Records,
		WALFsyncs:                  ws.Fsyncs,
		WALSegments:                ws.Segments,
		GroupCommitBatchP50:        int64(batch.Quantile(0.5)),
		GroupCommitBatchP99:        int64(batch.Quantile(0.99)),
		Checkpoints:                ws.Checkpoints,
		FsyncP50:                   fsync.Quantile(0.5),
		FsyncP99:                   fsync.Quantile(0.99),
		RecoveryDuration:           db.dur.recoveryTime,
		RecoveryRecords:            db.dur.recovery.Records,
		RecoverySegments:           db.dur.recovery.Segments,
		LastRecoveryTruncatedBytes: db.dur.recovery.TruncatedBytes,
		OrphanSSTsRemoved:          db.dur.orphans,
		CorruptSlotsFreed:          db.dur.corruptSlots,
	}
}

// openDurable locks the data directory and rebuilds the durable metadata
// that partition construction needs: the manifest journal's live SST sets
// (with orphan SSTs — written but never committed — removed before the
// flash backing adopts them) and real-file backings attached to both
// devices so slab and SST recovery reads come off disk.
func (db *DB) openDurable() error {
	d := &durable{openedAt: time.Now()}
	dir, err := storage.OpenDir(db.opts.DataDir, db.opts.Faults)
	if err != nil {
		return err
	}
	d.dir = dir
	journal, err := storage.OpenJournal(dir)
	if err != nil {
		dir.Close()
		return err
	}
	d.journal = journal
	orphans, err := dir.RemoveExtraFiles(storage.DirFlash, journal.LiveAll())
	if err != nil {
		dir.Close()
		return err
	}
	d.orphans = len(orphans)
	wal, err := storage.OpenWAL(dir, storage.WALOptions{
		Mode:          db.opts.WALSync,
		FsyncEvery:    db.opts.WALFsyncEvery,
		SegmentBytes:  db.opts.WALSegmentBytes,
		StallDeadline: db.opts.IOStallDeadline,
		OnIOError:     db.onWALIOError,
		FsyncLatency:  db.obs.fsyncLatency,
		BatchRecords:  db.obs.walBatch,
		Events:        db.obs.events,
	})
	if err != nil {
		dir.Close()
		return err
	}
	d.wal = wal
	if err := db.opts.NVM.AttachBacking(dir.Backing(storage.DirNVM)); err != nil {
		dir.Close()
		return err
	}
	if err := db.opts.Flash.AttachBacking(dir.Backing(storage.DirFlash)); err != nil {
		dir.Close()
		return err
	}
	db.dur = d
	return nil
}

// finishDurable completes recovery after the partitions have rebuilt their
// in-memory state from the recovered files: replay the WAL tail through the
// ordinary write path (as internal intents), checkpoint so the replayed
// segments go away, and only then attach the WAL to the partitions — replay
// itself must not re-log. Counters touched by replay are zeroed; an Open
// returns a DB with fresh stats either way.
func (db *DB) finishDurable() error {
	d := db.dur
	_, err := d.wal.Replay(func(op byte, key, value []byte) error {
		var rerr error
		switch op {
		case storage.OpPut:
			_, rerr = db.writeOne(intentPut, key, value, nil, true)
		case storage.OpDel:
			_, rerr = db.writeOne(intentDel, key, nil, nil, true)
		default:
			rerr = fmt.Errorf("core: wal replay: unknown op %d", op)
		}
		return rerr
	})
	d.recovery = d.wal.Stats().Recovery
	if err != nil {
		return err
	}
	if err := d.wal.Start(db.syncSlabs); err != nil {
		return err
	}
	for _, p := range db.parts {
		p.wal = d.wal
	}
	db.ResetStats()
	d.recoveryTime = time.Since(d.openedAt)
	db.obs.events.Emit("recovery",
		"segments", d.recovery.Segments,
		"records", d.recovery.Records,
		"truncated_bytes", d.recovery.TruncatedBytes,
		"orphan_ssts", d.orphans,
		"corrupt_slots_freed", d.corruptSlots,
		"took_ms", d.recoveryTime)
	return nil
}

// onWALIOError is the WAL's sticky-error hook (storage.WALOptions.OnIOError):
// invoked exactly once, with the first error that poisoned the log, before
// any durability waiter is woken with that error, so it must not block. The
// WAL refuses all further appends on its own; this hook widens the refusal
// to the whole DB — writes go read-only so clients see a typed, immediate
// ErrReadOnly instead of per-op storage errors, starting with the write
// issued right after the failed one returns — and counts declared I/O
// stalls.
func (db *DB) onWALIOError(err error) {
	if errors.Is(err, storage.ErrIOStalled) {
		db.obs.ioStalls.Inc()
	}
	db.health.degrade("wal", err)
}

// errCheckpointBusy reports a checkpoint that had to be skipped: some
// partition's slab files are not a complete image of its logical state,
// because freed slots are still awaiting their zeroing writes (an open
// reclamation epoch — a live iterator — or a background commit's deferred
// batch mid-zeroing). The WAL retains its segments and retries at the next
// rotation; Close skips pruning and lets the next open replay instead.
var errCheckpointBusy = errors.New("core: checkpoint skipped: slab frees deferred by an open epoch")

// errCheckpointDegraded reports a checkpoint refused because the DB has
// left Healthy. Once degraded, the WAL is the one durable artifact still
// trusted end to end: whatever failed — a WAL or slab write, a fsync, a
// manifest journal edit — the files behind it are no longer known to hold
// what the engine believes they hold, so checkpoints must stop declaring
// records redundant. (A failed compaction commit itself strands nothing: a
// round frees no slot before its manifest edit is durable.) Like
// errCheckpointBusy this is a benign skip, not a Close error: the segments
// are retained and the recovering reopen replays them.
var errCheckpointDegraded = errors.New("core: checkpoint refused: database is degraded, WAL records must be retained for recovery")

// syncSlabs is the WAL's checkpoint callback: fsync every partition's slab
// backing files, making all previously appended WAL records redundant.
//
// The redundancy argument needs every record's slab effects to be in the
// page cache before the fsync. Puts issue their writes synchronously under
// the partition lock before appending, but a delete's slot-zeroing write is
// DEFERRED while an epoch is pinned — so if any partition still owes
// zeroing writes, fsyncing would declare DEL records redundant whose
// effects never reached the files, and a crash would resurrect acknowledged
// deletes. Refuse the checkpoint instead (errCheckpointBusy); records
// appended after a partition's check land in the active segment, which no
// checkpoint prunes, so the check-then-sync is race-free.
func (db *DB) syncSlabs() error {
	if !db.health.ok() {
		return errCheckpointDegraded
	}
	for _, p := range db.parts {
		p.mu.Lock()
		dirty := p.slabs.DeferredDirty()
		p.mu.Unlock()
		if dirty {
			return errCheckpointBusy
		}
		if err := p.slabs.Sync(); err != nil {
			// A real checkpoint failure (not the benign busy skip above): a
			// slab file's fsync failed, so the page cache's contents can no
			// longer be trusted to reach disk. The WAL retries checkpoints on
			// its own cadence, but further acks would be promises the storage
			// can't keep — degrade to read-only.
			db.health.degrade("checkpoint", err)
			return err
		}
	}
	return nil
}

// closeDurable flushes and fsyncs the WAL, checkpoints the slabs, and —
// only if both succeeded, making every WAL record redundant — prunes the
// segments so the next open replays an empty tail. Then it releases the
// directory lock. A busy checkpoint (an iterator still open at Close, its
// epoch deferring slot frees) is not an error: the WAL is already fsync'd,
// so the segments are simply retained and the next open replays them.
func (db *DB) closeDurable() error {
	d := db.dur
	err := d.wal.Close()
	serr := db.syncSlabs()
	switch {
	case errors.Is(serr, errCheckpointBusy), errors.Is(serr, errCheckpointDegraded):
		// Keep the segments; replay-on-open covers the un-issued frees
		// (busy) or the whole degraded tail (degraded).
	case serr != nil:
		if err == nil {
			err = serr
		}
	case err == nil:
		err = d.wal.Prune()
	}
	if derr := d.dir.Close(); err == nil {
		err = derr
	}
	return err
}

// crashDurable is the test hook simulating kill -9 from inside the
// process: stop the background workers (a real kill would stop them too,
// only less politely — a worker's commit is crash-atomic through the
// journal either way), drop the WAL's unflushed buffer, and release the
// directory without syncing anything. Everything already written sits in
// the OS page cache, exactly as after a real kill -9.
func (db *DB) crashDurable() {
	if db.closed.Swap(true) {
		return
	}
	db.stopBackground()
	// Writers blocked in WaitDurable are woken by the WAL Kill below.
	db.dur.wal.Kill()
	db.dur.dir.Close()
}
