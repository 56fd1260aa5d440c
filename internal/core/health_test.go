package core

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/storage"
)

// waitForState polls Health until the wanted state appears. Degrade
// transitions run on whichever goroutine hit the error (the WAL flusher,
// the watchdog, the checkpoint caller), so a writer that just saw its Put
// fail may observe the state store a beat later.
func waitForState(t *testing.T, db *DB, want HealthState) Health {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := db.Health()
		if h.State == want {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("health = %+v, want state %v", h, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultMatrix drives the health state machine through every sticky
// storage failure the issue's matrix names: WAL append, WAL fsync, manifest
// journal write, checkpoint fsync, ENOSPC, and a watchdog-declared I/O
// stall. Every row must end in the same place — Degraded, writes refused
// fast with ErrReadOnly, reads still serving, no write acknowledged after
// its durability failed, and a clean reopen back to Healthy with every
// acknowledged write intact.
func TestFaultMatrix(t *testing.T) {
	const base = 20 // keys written (and acked) before the fault is armed

	// putUntil writes key(base+j) until one fails, returning how many of
	// them were acknowledged and the error that stopped the loop.
	putUntil := func(limit int) func(*DB) (int, error) {
		return func(db *DB) (int, error) {
			for j := 0; j < limit; j++ {
				if _, err := db.Put(key(base+j), val(base+j, 1024)); err != nil {
					return j, err
				}
			}
			return limit, nil
		}
	}

	rows := []struct {
		name string
		tune func(o *Options)
		arm  func(fi *storage.FaultInjector)
		// trigger provokes the armed fault, returning how many additional
		// keys (key(base)...) were acknowledged and the error observed.
		trigger func(db *DB) (int, error)
		// check, optional, inspects the triggering error.
		check func(t *testing.T, err error)
	}{
		{
			// The very next WAL I/O is the segment append: the record never
			// reaches disk and the writer is failed before acknowledgement.
			name:    "wal-append-error",
			arm:     func(fi *storage.FaultInjector) { fi.ArmScoped(storage.ScopeWAL, 1, storage.FaultError) },
			trigger: putUntil(20),
		},
		{
			// WAL I/O #1 is the append write, #2 the fdatasync covering it:
			// the record is on disk but its durability was never proven, so
			// the write must still fail — never ack after a failed fsync.
			name:    "wal-fsync-error",
			arm:     func(fi *storage.FaultInjector) { fi.ArmScoped(storage.ScopeWAL, 2, storage.FaultError) },
			trigger: putUntil(20),
		},
		{
			// Journal-scoped: the first MANIFEST write after arming is the
			// inline (CompactionSync) compaction commit once the writes
			// below fill the 512 KiB NVM budget. The round aborts with
			// nothing freed — every record is still where it was — the DB
			// degrades, and the next put bounces off the gate.
			name:    "journal-logedit-error",
			arm:     func(fi *storage.FaultInjector) { fi.ArmScoped(storage.ScopeJournal, 1, storage.FaultError) },
			trigger: putUntil(800),
		},
		{
			// Checkpoint fsync: with no concurrent writes the first
			// slab-scoped I/O is syncSlabs' per-partition fsync itself.
			name: "checkpoint-fsync-error",
			arm:  func(fi *storage.FaultInjector) { fi.ArmScoped(storage.ScopeSlab, 1, storage.FaultError) },
			trigger: func(db *DB) (int, error) {
				err := db.syncSlabs()
				if err == nil {
					return 0, nil
				}
				return 0, err
			},
		},
		{
			// A full disk is indistinguishable from FaultError to the state
			// machine, but the error chain must still say ENOSPC.
			name:    "enospc",
			arm:     func(fi *storage.FaultInjector) { fi.ArmScoped(storage.ScopeWAL, 1, storage.FaultENOSPC) },
			trigger: putUntil(20),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, syscall.ENOSPC) {
					t.Fatalf("enospc row error = %v, want errors.Is ENOSPC", err)
				}
			},
		},
		{
			// The stall row: the I/O succeeds eventually, but 400ms late.
			// The watchdog (50ms deadline) must declare the stall and fail
			// the waiter long before the device comes back.
			name: "io-stall",
			tune: func(o *Options) { o.IOStallDeadline = 50 * time.Millisecond },
			arm: func(fi *storage.FaultInjector) {
				fi.ArmStall(storage.ScopeWAL, 1, 400*time.Millisecond)
			},
			trigger: putUntil(20),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, storage.ErrIOStalled) {
					t.Fatalf("stall row error = %v, want errors.Is ErrIOStalled", err)
				}
			},
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			fi := &storage.FaultInjector{}
			o := durableOptions(dir)
			o.Faults = fi
			if row.tune != nil {
				row.tune(&o)
			}
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < base; i++ {
				mustPut(t, db, key(i), val(i, 1024))
			}
			if h := db.Health(); h.State != StateHealthy || h.ReadOnly || h.Cause != "" {
				t.Fatalf("pre-fault health = %+v", h)
			}

			row.arm(fi)
			extra, ferr := row.trigger(db)
			if ferr == nil {
				t.Fatal("no operation failed after arming the fault")
			}
			if row.check != nil {
				row.check(t, ferr)
			}
			if !fi.Fired() {
				t.Fatalf("fault never fired; trigger error was %v", ferr)
			}

			h := waitForState(t, db, StateDegraded)
			if !h.ReadOnly || h.Cause == "" || h.Since.IsZero() {
				t.Fatalf("degraded health = %+v, want read-only with a cause and timestamp", h)
			}
			// Mutations fail fast with the typed error — no hang, no retry.
			if _, err := db.Put(key(9000), val(9000, 64)); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("Put while degraded = %v, want ErrReadOnly", err)
			}
			if _, err := db.Delete(key(0)); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("Delete while degraded = %v, want ErrReadOnly", err)
			}
			if _, err := db.PutBatch([]KV{{Key: key(9001), Value: val(9001, 64)}}); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("PutBatch while degraded = %v, want ErrReadOnly", err)
			}
			// Lock-free reads keep serving the published views.
			checkKeys(t, db, base, 1024, nil)
			it := db.NewIterator(nil, 0)
			seen := 0
			for it.Next() {
				seen++
			}
			if err := it.Close(); err != nil {
				t.Fatalf("iterator while degraded: %v", err)
			}
			if seen == 0 {
				t.Fatal("iterator while degraded saw nothing")
			}

			// Crash (the stall row's wedged flusher is joined by Kill), lift
			// the fault, reopen: recovery is a reopen, and every write that
			// was acknowledged must be there.
			db.crashDurable()
			fi.Reset()
			db2, err := Open(durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if h := db2.Health(); h.State != StateHealthy || h.ReadOnly {
				t.Fatalf("health after reopen = %+v, want healthy", h)
			}
			checkKeys(t, db2, base+extra, 1024, nil)
			// And the reopened DB accepts writes again.
			mustPut(t, db2, key(base+extra), val(base+extra, 1024))
		})
	}
}

// TestIteratorCloseSlabFaultDegrades closes an iterator whose epoch deferred
// a free while the slab device fails the zeroing write. The iterator finishes
// its epoch the way compaction and the scrubber finish theirs, so the failure
// degrades the DB: Close does not panic with the partition lock held, and the
// DB still closes.
func TestIteratorCloseSlabFaultDegrades(t *testing.T) {
	fi := &storage.FaultInjector{}
	o := durableOptions(t.TempDir())
	o.Faults = fi
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	it := db.NewIterator(nil, 0)
	if _, err := db.Delete(key(1)); err != nil { // the pinned epoch defers the slot's zeroing
		t.Fatal(err)
	}
	fi.ArmScoped(storage.ScopeSlab, 1, storage.FaultError)
	if err := it.Close(); err != nil {
		t.Fatalf("iterator Close = %v; the slab fault is the DB's to report, not the scan's", err)
	}
	if !fi.Fired() {
		t.Fatal("closing the epoch issued no slab write: nothing was deferred")
	}
	if h := db.Health(); h.State != StateDegraded {
		t.Fatalf("health after the failed deferred free = %+v, want degraded", h)
	}
	closed := make(chan struct{})
	go func() {
		db.Close() // its error is the degraded DB's; returning is the point
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("db.Close hangs after the iterator's Close hit a slab fault")
	}
}

// TestDegradeBeforeWake loops the race behind "degraded means read-only":
// the write that hits a WAL fault fails, and the next write, issued the
// moment the first returns, must be refused with ErrReadOnly. If the failed
// write's waiter were woken before the WAL's OnIOError hook degrades the DB,
// the next write could pass the health gate, reach the poisoned log, and
// come back with the log's storage error instead. The window is narrow
// (storage's TestIOErrorHookRunsBeforeWaitersWake widens it with a slow
// hook); this loop checks the contract end to end.
func TestDegradeBeforeWake(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 20
	}
	for i := 0; i < iters; i++ {
		fi := &storage.FaultInjector{}
		o := durableOptions(t.TempDir())
		o.Faults = fi
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		mustPut(t, db, key(0), val(0, 64))
		fi.ArmScoped(storage.ScopeWAL, 1, storage.FaultError)
		if _, err := db.Put(key(1), val(1, 64)); err == nil {
			t.Fatalf("iteration %d: the write through the armed WAL fault succeeded", i)
		}
		if _, err := db.Put(key(2), val(2, 64)); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("iteration %d: write after the failed one = %v, want ErrReadOnly", i, err)
		}
		db.Close()
	}
}

// TestScrubSlabBitRotFails corrupts live NVM slab slots on disk under a
// running DB and asserts one scrub pass proves the loss: the CRC sweep
// must find the rot and move the DB to Failed — there is no redundant copy
// of an NVM-resident object, so this is not a quarantine-and-carry-on.
func TestScrubSlabBitRotFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		mustPut(t, db, key(i), val(i, 512))
	}

	// Flip bytes across a 4 KiB window in the middle of the fullest slab
	// class file. Slots are allocated densely from the front and nothing
	// has been demoted (the working set is far under the NVM budget), so
	// the window is covered with live slots; the 37-byte stride is smaller
	// than any payload, so at least one flip lands in CRC-protected bytes.
	slabs, err := filepath.Glob(filepath.Join(dir, "nvm", "*"))
	if err != nil || len(slabs) == 0 {
		t.Fatalf("slab files: %v (err %v)", slabs, err)
	}
	target, size := "", int64(0)
	for _, f := range slabs {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > size {
			target, size = f, st.Size()
		}
	}
	f, err := os.OpenFile(target, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := size / 4
	for off := start; off < start+4096 && off < size; off += 37 {
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	db.scrubPass(nil)

	h := db.Health()
	if h.State != StateFailed || !h.ReadOnly || h.Cause == "" {
		t.Fatalf("health after slab rot scrub = %+v, want failed", h)
	}
	if got := db.obs.scrubBitRot.Value(); got == 0 {
		t.Fatal("scrub found rot but the bitrot counter is zero")
	}
	if _, err := db.Put(key(n), val(n, 512)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on a failed DB = %v, want ErrReadOnly", err)
	}
	db.crashDurable()
}

// TestScrubQuarantinesRottedSST corrupts a flash table on disk and asserts
// the scrub verdict for the redundant tier: the table is quarantined out of
// the manifest (journaled, so the removal is crash-durable), the file is
// preserved for post-mortem, reads fall through without erroring, and the
// DB stays Healthy — flash rot costs coverage, not the write path.
func TestScrubQuarantinesRottedSST(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 600 // ~600 KiB: past the 512 KiB NVM budget, so compaction built SSTs
	for i := 0; i < n; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	ssts, err := filepath.Glob(filepath.Join(dir, "flash", "*"))
	if err != nil || len(ssts) == 0 {
		t.Fatalf("no SSTs on disk to corrupt: %v (err %v)", ssts, err)
	}
	// Byte 16 of the file is inside data block 0 (blocks are written from
	// offset 0; the index trailer follows them).
	victim := ssts[0]
	f, err := os.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 16); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], 16); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db.scrubPass(nil)

	if got := db.obs.scrubQuarantine.Value(); got != 1 {
		t.Fatalf("quarantined tables = %d, want 1", got)
	}
	if h := db.Health(); h.State != StateHealthy || h.ReadOnly {
		t.Fatalf("health after SST quarantine = %+v, want healthy (flash rot is redundant-tier loss)", h)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("quarantined SST removed from disk (want preserved): %v", err)
	}
	// Reads fall through: every key either serves its true value (an NVM
	// or surviving-SST copy) or reports a clean miss — never an error,
	// never rotted bytes.
	misses := 0
	for i := 0; i < n; i++ {
		v, _, _, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("get key %d after quarantine: %v", i, err)
		}
		if v == nil {
			misses++
			continue
		}
		want := val(i, 1024)
		if string(v) != string(want) {
			t.Fatalf("key %d served wrong bytes after quarantine", i)
		}
	}
	// Writes still work — and a clean close/reopen honors the journaled
	// quarantine rather than resurrecting the rotted table.
	mustPut(t, db, key(n), val(n, 1024))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if h := db2.Health(); h.State != StateHealthy {
		t.Fatalf("health after reopen = %+v", h)
	}
	for i := 0; i <= n; i++ {
		if _, _, _, err := db2.Get(key(i)); err != nil {
			t.Fatalf("get key %d after reopen: %v", i, err)
		}
	}
}
