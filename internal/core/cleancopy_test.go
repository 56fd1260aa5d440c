package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
)

// cleanModel is a map model of a DB under test: the value of every live key,
// and every key ever written, so that a deleted one is checked too.
type cleanModel struct {
	live map[string][]byte
	keys map[string]bool
}

func (m *cleanModel) put(t *testing.T, db *DB, k, v []byte) {
	t.Helper()
	mustPut(t, db, k, v)
	m.live[string(k)] = v
	m.keys[string(k)] = true
}

func (m *cleanModel) del(t *testing.T, db *DB, k []byte) {
	t.Helper()
	if _, err := db.Delete(k); err != nil {
		t.Fatal(err)
	}
	delete(m.live, string(k))
	m.keys[string(k)] = true
}

// check compares every GET and a full scan with the model: no acknowledged
// write lost, no acknowledged delete back.
func (m *cleanModel) check(t *testing.T, db *DB, when string) {
	t.Helper()
	for k := range m.keys {
		v, _, _, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("%s: get %s: %v", when, k, err)
		}
		want, live := m.live[k]
		switch {
		case !live && v != nil:
			t.Fatalf("%s: deleted key %s came back with %d bytes", when, k, len(v))
		case live && !bytes.Equal(v, want):
			t.Fatalf("%s: key %s holds %d bytes, want its %d", when, k, len(v), len(want))
		}
	}
	kvs, _, err := db.Scan(nil, len(m.keys)+1)
	if err != nil {
		t.Fatalf("%s: scan: %v", when, err)
	}
	want := make([]string, 0, len(m.live))
	for k := range m.live {
		want = append(want, k)
	}
	sort.Strings(want)
	if len(kvs) != len(want) {
		t.Fatalf("%s: scan returned %d keys, want %d", when, len(kvs), len(want))
	}
	for i, kv := range kvs {
		if string(kv.Key) != want[i] || !bytes.Equal(kv.Value, m.live[want[i]]) {
			t.Fatalf("%s: scan entry %d is %s (%d bytes), want %s", when, i, kv.Key, len(kv.Value), want[i])
		}
	}
}

// copyPromote copies the flash versions of keys [from, from+n) into NVM
// the way a promotion round's commit does, and returns the keys.
func copyPromote(t *testing.T, db *DB, from, n int) [][]byte {
	t.Helper()
	var keys [][]byte
	for i := from; i < from+n; i++ {
		keys = append(keys, key(i))
	}
	promoteKeys(t, db, keys)
	return keys
}

// promoteKeys copies the flash versions of keys, none of them in NVM, into
// NVM the way a promotion round's commit does.
func promoteKeys(t *testing.T, db *DB, keys [][]byte) {
	t.Helper()
	p := db.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.man.Acquire()
	defer snap.Release()
	for _, k := range keys {
		tbl := snap.Find(k)
		if tbl == nil {
			t.Fatalf("fixture: key %s is not on flash", k)
		}
		rec, found, err := tbl.Get(p.clk, k)
		if err != nil || !found || rec.Tombstone {
			t.Fatalf("fixture: key %s on flash: found=%v err=%v", k, found, err)
		}
		rec.Key = k
		if !p.promoteToNVM(p.clk, rec) {
			t.Fatal("fixture: NVM full")
		}
		p.bkt.OnPut(p.opts.KeyIndex(k))
	}
	p.publishView()
}

// dataPages is the bytes of the tables' data sections in whole pages: what
// a merge that carries every block of them over remaps.
func dataPages(tables []*sst.Table) int64 {
	var n int64
	for _, tbl := range tables {
		n += (tbl.DataBytes() + simdev.PageSize - 1) / simdev.PageSize * simdev.PageSize
	}
	return n
}

// partStats snapshots partition 0's counters and its flash device's bytes
// written.
func partStats(db *DB) (Stats, int64) {
	p := db.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats, p.opts.Flash.Stats().WriteBytes
}

// A copy-promoted object's life, checked against a map model after every
// step in both compaction modes and in durable mode across a crash. A clean
// copy demoted untouched leaves NVM with no flash write at all; one updated
// or deleted first is demoted or annihilated like any NVM object; one the
// mapper keeps pinned keeps its flash version through a merge of its range,
// and is an ordinary NVM object once written. Last, a version collision: a
// reopened partition restores its version counter from the slabs alone, so a
// new write can take the version the key's flash record already holds. Even
// marked clean, such a record differs from its flash version in value, and
// the round writes its new bytes to flash.
func TestCleanCopyLifecycle(t *testing.T) {
	for _, mode := range []string{"sync", "async", "durable"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			options := func() Options {
				o := promotionOptions()
				o.NVMBudget = 64 << 20 // rounds run only when the test asks
				if mode == "async" {
					o.CompactionMode = CompactionAsync
				}
				if mode == "durable" {
					o.DataDir = dir
				}
				return o
			}
			o := options()
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			// reopen crashes a durable DB and reopens its directory; an
			// in-memory one closes and reopens on the same devices.
			reopen := func() {
				t.Helper()
				if mode == "durable" {
					db.crashDurable()
					o = options()
				} else if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				reopened, err := Open(o)
				if err != nil {
					t.Fatal(err)
				}
				db = reopened
			}
			m := &cleanModel{live: map[string][]byte{}, keys: map[string]bool{}}
			const n = 600
			for i := 0; i < n; i++ {
				m.put(t, db, key(i), val(i, 400))
			}
			mergeAll(db.parts[0], true)
			m.check(t, db, "loaded")
			inNVM := func(k []byte) bool {
				p := db.parts[0]
				p.mu.Lock()
				defer p.mu.Unlock()
				_, ok := p.index.Get(k)
				return ok
			}
			// pinnedMerge heats keys, runs a merge of the whole log that
			// keeps them in NVM, and checks that it kept their flash
			// versions: counted as kept if the copies are clean, left as
			// stale versions nothing moves if not. NVM holds nothing else, so
			// nothing moves into flash, and the round writes and retires no
			// table.
			pinnedMerge := func(keys [][]byte, clean bool) {
				t.Helper()
				for rep := 0; rep < 4; rep++ {
					for _, k := range keys {
						db.Get(k)
					}
				}
				_, inputs := flashLog(t, db.parts[0])
				st0, wr0 := partStats(db)
				mergeAll(db.parts[0], false)
				st1, wr1 := partStats(db)
				for _, k := range keys {
					if !inNVM(k) {
						t.Fatalf("fixture: hot key %s was demoted", k)
					}
				}
				kept, dropped := st1.FlashVersionsKept-st0.FlashVersionsKept, st1.DroppedStale-st0.DroppedStale
				if want := int64(len(keys)); clean && kept != want || !clean && kept != 0 || dropped != 0 {
					t.Fatalf("a merge over %d pinned copies (clean %v) kept %d flash versions and dropped %d", want, clean, kept, dropped)
				}
				_, outputs := flashLog(t, db.parts[0])
				if wr1 != wr0 || st1.FlashBytesWritten+st1.FlashBytesRemapped != st0.FlashBytesWritten+st0.FlashBytesRemapped || !slices.Equal(outputs, inputs) {
					t.Fatalf("a merge over pinned copies (clean %v) wrote %d device bytes (%d counted, %d remapped) and left %d tables of %d",
						clean, wr1-wr0, st1.FlashBytesWritten-st0.FlashBytesWritten, st1.FlashBytesRemapped-st0.FlashBytesRemapped, len(outputs), len(inputs))
				}
				m.check(t, db, "pinned across a merge")
			}

			// Demote untouched: the copies leave NVM, flash stays as it is.
			group := copyPromote(t, db, 0, 8)
			st0, wr0 := partStats(db)
			mergeAll(db.parts[0], true)
			st1, wr1 := partStats(db)
			if wr1 != wr0 || st1.FlashBytesWritten != st0.FlashBytesWritten {
				t.Fatalf("demoting %d untouched clean copies wrote %d device bytes (%d counted)", len(group), wr1-wr0, st1.FlashBytesWritten-st0.FlashBytesWritten)
			}
			if got := st1.CleanEvictions - st0.CleanEvictions; got != int64(len(group)) || st1.Demoted != st0.Demoted {
				t.Fatalf("%d clean copies: %d clean evictions, %d demotions", len(group), got, st1.Demoted-st0.Demoted)
			}
			m.check(t, db, "demote untouched")

			// Demote untouched beside a changed block: every block that
			// holds a clean copy's flash version is carried over.
			group = copyPromote(t, db, 50, 8)
			m.put(t, db, key(n+1000), val(n+1000, 400)) // sorts after every flash key
			_, inputs := flashLog(t, db.parts[0])
			st0, _ = partStats(db)
			mergeAll(db.parts[0], true)
			st1, _ = partStats(db)
			if remapped, pages := st1.FlashBytesRemapped-st0.FlashBytesRemapped, dataPages(inputs); remapped != pages || st1.CleanEvictions-st0.CleanEvictions != int64(len(group)) {
				t.Fatalf("evicting %d clean copies beside a new key: %d clean evictions, %d bytes remapped of %d in the inputs' data pages",
					len(group), st1.CleanEvictions-st0.CleanEvictions, remapped, pages)
			}
			m.check(t, db, "demote untouched beside a change")

			// Update, then demote: the new values reach flash.
			group = copyPromote(t, db, 100, 8)
			for i, k := range group {
				m.put(t, db, k, val(1000+i, 300+100*i))
			}
			st0, _ = partStats(db)
			mergeAll(db.parts[0], true)
			st1, _ = partStats(db)
			if st1.CleanEvictions != st0.CleanEvictions || st1.Demoted-st0.Demoted != int64(len(group)) {
				t.Fatalf("%d updated copies: %d clean evictions, %d demotions", len(group), st1.CleanEvictions-st0.CleanEvictions, st1.Demoted-st0.Demoted)
			}
			m.check(t, db, "update then demote")

			// Delete, then demote: the tombstones take the flash versions.
			group = copyPromote(t, db, 200, 8)
			for _, k := range group {
				m.del(t, db, k)
			}
			mergeAll(db.parts[0], true)
			m.check(t, db, "delete then demote")

			// Pinned across a merge of its range, then updated.
			group = copyPromote(t, db, 300, 8)
			pinnedMerge(group, true)
			if mode == "durable" {
				// The marks do not survive: the copies reopen dirty.
				reopen()
				m.check(t, db, "pinned copies after a crash")
				if marks := len(db.parts[0].clean); marks != 0 {
					t.Fatalf("%d clean marks after a crash", marks)
				}
				// Also drains what the WAL replay wrote back to NVM.
				mergeAll(db.parts[0], true)
				group = copyPromote(t, db, 320, 8)
				pinnedMerge(group, true)
			}
			for i, k := range group {
				m.put(t, db, k, val(2000+i, 500))
			}
			pinnedMerge(group, false)
			mergeAll(db.parts[0], true)
			m.check(t, db, "pinned, then updated and demoted")

			// Pinned, then deleted.
			group = copyPromote(t, db, 400, 8)
			pinnedMerge(group, true)
			for _, k := range group {
				m.del(t, db, k)
			}
			m.check(t, db, "pinned, then deleted")
			mergeAll(db.parts[0], true)
			m.check(t, db, "pinned, deleted and demoted")
			reopen()
			m.check(t, db, "reopened")

			// A version collision, marked clean on purpose.
			p := db.parts[0]
			flash, _ := flashLog(t, p)
			p.mu.Lock()
			next := p.nextVersion
			p.mu.Unlock()
			var victim sst.Record
			for _, r := range flash {
				if _, live := m.live[string(r.Key)]; live && !inNVM(r.Key) && r.Version >= next && (victim.Key == nil || r.Version < victim.Version) {
					victim = r
				}
			}
			if victim.Key == nil {
				t.Fatalf("fixture: no flash record at or above version %d", next)
			}
			filler := []byte("filler")
			for {
				p.mu.Lock()
				next = p.nextVersion
				p.mu.Unlock()
				if next == victim.Version {
					break
				}
				m.put(t, db, filler, val(int(next), 64))
			}
			fresh := val(3000, len(victim.Value))
			m.put(t, db, victim.Key, fresh)
			p.mu.Lock()
			v, _ := p.index.Get(victim.Key)
			rec, err := p.slabs.Get(p.clk, slab.Loc(v))
			if err == nil && rec.Version != victim.Version {
				err = fmt.Errorf("version %d, want the flash record's %d", rec.Version, victim.Version)
			}
			p.markClean(victim.Key)
			p.mu.Unlock()
			if err != nil {
				t.Fatalf("fixture: colliding write: %v", err)
			}
			st0, _ = partStats(db)
			mergeAll(p, true)
			st1, _ = partStats(db)
			if st1.CleanEvictions != st0.CleanEvictions {
				t.Fatalf("a copy that differs from its flash version in value was evicted as clean")
			}
			flash, _ = flashLog(t, p)
			i := sort.Search(len(flash), func(i int) bool { return bytes.Compare(flash[i].Key, victim.Key) >= 0 })
			if i == len(flash) || !bytes.Equal(flash[i].Key, victim.Key) || !bytes.Equal(flash[i].Value, fresh) {
				t.Fatalf("the colliding write's bytes did not reach flash")
			}
			m.check(t, db, "version collision demoted")
			reopen()
			m.check(t, db, "version collision reopened")
		})
	}
}
