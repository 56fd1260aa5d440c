package core

import (
	"bytes"
	"testing"

	"github.com/prismdb/prismdb/internal/storage"
)

// slabFaultSweep is the crash sweep the slab-ordering tests share. setup
// builds a data directory and closes it cleanly; op is one mutation on the
// reopened DB. A dry run counts op's slab I/Os; then, for each of them in
// turn, a fresh directory runs op with a FaultError armed on that I/O,
// crashes, and reopens, and check judges the value a GET returns (acked
// tells whether op reported success).
func slabFaultSweep(t *testing.T, setup func(db *DB), op func(db *DB) error, check func(t *testing.T, n int64, acked bool, got []byte)) {
	t.Helper()
	run := func(n int64) (slabOps int64) {
		dir := t.TempDir()
		db, err := Open(durableOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		setup(db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		o := durableOptions(dir)
		fi := &storage.FaultInjector{}
		o.Faults = fi
		if db, err = Open(o); err != nil {
			t.Fatal(err)
		}
		before := fi.ScopeOps(storage.ScopeSlab)
		if n > 0 {
			fi.ArmScoped(storage.ScopeSlab, n, storage.FaultError)
		}
		opErr := op(db)
		slabOps = fi.ScopeOps(storage.ScopeSlab) - before
		if n == 0 {
			if opErr != nil {
				t.Fatalf("dry run: %v", opErr)
			}
			db.Close()
			return slabOps
		}
		if !fi.Fired() {
			t.Fatalf("fault on slab I/O %d never fired", n)
		}
		db.crashDurable()
		db2, err := Open(durableOptions(dir))
		if err != nil {
			t.Fatalf("reopen after fault on slab I/O %d: %v", n, err)
		}
		defer db2.Close()
		got, _, _, err := db2.Get(key(0))
		if err != nil {
			t.Fatalf("get after fault on slab I/O %d: %v", n, err)
		}
		check(t, n, opErr == nil, got)
		return slabOps
	}
	ops := run(0)
	if ops < 2 {
		t.Fatalf("dry run issued %d slab I/Os, want at least 2", ops)
	}
	for n := int64(1); n <= ops; n++ {
		run(n)
	}
}

// TestDurableMoveWritesNewSlotBeforeFreeingOld pins the order of a
// class-changing update: the new slot is written before the old one is
// freed, so a crash between the two leaves both versions and recovery keeps
// the newer. Freeing first lost the acknowledged old value whenever the new
// slot's write failed.
func TestDurableMoveWritesNewSlotBeforeFreeingOld(t *testing.T) {
	small, large := val(0, 100), val(0, 900)
	slabFaultSweep(t,
		func(db *DB) { mustPut(t, db, key(0), small) },
		func(db *DB) error { _, err := db.Put(key(0), large); return err },
		func(t *testing.T, n int64, acked bool, got []byte) {
			switch {
			case bytes.Equal(got, large):
			case acked:
				t.Fatalf("fault on slab I/O %d: acknowledged put lost (%d bytes)", n, len(got))
			case !bytes.Equal(got, small):
				t.Fatalf("fault on slab I/O %d: GET returned %d bytes, want the old value or the new one", n, len(got))
			}
		})
}

// TestDurableDeleteWritesTombstoneBeforeFreeingSlot pins the order of a
// delete whose key has an older version on flash: the tombstone is written
// before the NVM slot is freed. Freeing first, a failed tombstone write
// exposed the flash version that an acknowledged put had overwritten.
func TestDurableDeleteWritesTombstoneBeforeFreeingSlot(t *testing.T) {
	v1, v2 := val(1, 200), val(2, 200)
	slabFaultSweep(t,
		func(db *DB) {
			mustPut(t, db, key(0), v1)
			mergeAll(db.parts[0], true)
			mustPut(t, db, key(0), v2)
		},
		func(db *DB) error { _, err := db.Delete(key(0)); return err },
		func(t *testing.T, n int64, acked bool, got []byte) {
			switch {
			case got == nil:
			case bytes.Equal(got, v1):
				t.Fatalf("fault on slab I/O %d: GET returned the overwritten flash version", n)
			case acked:
				t.Fatalf("fault on slab I/O %d: acknowledged delete undone (%d bytes)", n, len(got))
			case !bytes.Equal(got, v2):
				t.Fatalf("fault on slab I/O %d: GET returned %d bytes, want v2 or nothing", n, len(got))
			}
		})
}

// TestDurableTornSlotNotServed tears an in-place update (half the slot
// reaches the file) and crashes. Recovery must not serve the mix of new and
// old bytes: the slot fails its CRC, is counted and freed, and stays freed
// across the next reopen.
func TestDurableTornSlotNotServed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, b := bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 100)
	mustPut(t, db, key(0), a)
	mustPut(t, db, key(1), a)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	o := durableOptions(dir)
	fi := &storage.FaultInjector{}
	o.Faults = fi
	if db, err = Open(o); err != nil {
		t.Fatal(err)
	}
	fi.ArmScoped(storage.ScopeSlab, 1, storage.FaultTornWrite)
	db.Put(key(0), b) // the tear reports success; what follows fails
	if !fi.Fired() {
		t.Fatal("torn write never fired")
	}
	db.crashDurable()

	db, err = Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := db.Get(key(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil && !bytes.Equal(got, a) && !bytes.Equal(got, b) {
		t.Fatalf("GET served a torn slot: %q", got)
	}
	if ps := db.PersistenceStats(); ps.CorruptSlotsFreed != 1 {
		t.Fatalf("CorruptSlotsFreed = %d, want 1", ps.CorruptSlotsFreed)
	}
	if got, _, _, err := db.Get(key(1)); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("untorn key: %d bytes, err %v", len(got), err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if ps := db.PersistenceStats(); ps.CorruptSlotsFreed != 0 {
		t.Fatalf("second reopen found %d corrupt slots: the first did not free the torn one", ps.CorruptSlotsFreed)
	}
}
