package core

import (
	"bytes"
	"fmt"
	"testing"
)

// A stale flash version under a pinned dirty NVM version stays on flash
// until something moves its key, and never shows through. Checked against a
// map model after every step, in both compaction modes and in durable mode
// across crashes. An update of a flash key that the mapper then pins leaves
// its old version on flash: a merge with nothing else to move writes and
// retires no table, and one that demotes a new key beside it carries every
// input block over, the stale versions' blocks included, for no device
// bytes. GETs, a scan and Stats see only the NVM versions. Then each
// group's key moves, one way per group: a demotion writes the NVM version
// over the stale one, and a delete leaves a tombstone that takes it when
// demoted. The old values never come back, including after a reopen.
func TestPinnedStaleVersionStays(t *testing.T) {
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
			m := &cleanModel{live: map[string][]byte{}, keys: map[string]bool{}}
			// reopen crashes a durable DB and reopens its directory; an
			// in-memory one closes and reopens on the same devices.
			reopen := func(when string) {
				t.Helper()
				if mode == "durable" {
					db.crashDurable()
					o = options()
				} else if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(o); err != nil {
					t.Fatal(err)
				}
				m.check(t, db, when)
			}
			const n = 600
			for i := 0; i < n; i++ {
				m.put(t, db, key(i), val(i, 400))
			}
			mergeAll(db.parts[0], true)
			m.check(t, db, "loaded")

			// onFlash returns the flash log's record of k, if it has one.
			onFlash := func(k []byte) ([]byte, bool) {
				recs, _ := flashLog(t, db.parts[0])
				for _, r := range recs {
					if bytes.Equal(r.Key, k) {
						return r.Value, true
					}
				}
				return nil, false
			}
			// pinStale updates keys, one per block or so, heats them so the
			// mapper pins them, and runs two merges of the whole log: one
			// with nothing else to move, one beside a new key. Both leave
			// the old versions on flash.
			pinStale := func(from int, tag string) [][]byte {
				t.Helper()
				var group [][]byte
				for i := from; i < from+80; i += 10 {
					k := key(i)
					group = append(group, k)
					m.put(t, db, k, val(5000+i, 400))
				}
				for rep := 0; rep < 4; rep++ {
					for _, k := range group {
						db.Get(k)
					}
				}
				_, inputs := flashLog(t, db.parts[0])
				st0, wr0 := partStats(db)
				mergeAll(db.parts[0], false)
				st1, wr1 := partStats(db)
				_, outputs := flashLog(t, db.parts[0])
				if wr1 != wr0 || st1.FlashBytesWritten != st0.FlashBytesWritten || st1.FlashBytesRemapped != st0.FlashBytesRemapped || len(outputs) != len(inputs) {
					t.Fatalf("%s: a merge that moves nothing wrote %d device bytes (%d counted, %d remapped) and left %d tables of %d",
						tag, wr1-wr0, st1.FlashBytesWritten-st0.FlashBytesWritten, st1.FlashBytesRemapped-st0.FlashBytesRemapped, len(outputs), len(inputs))
				}
				for i, tbl := range outputs {
					if tbl != inputs[i] {
						t.Fatalf("%s: a merge that moves nothing retired %s", tag, inputs[i].Name())
					}
				}

				// A new key after every flash key, which the tracker forgets
				// so that the mapper demotes it.
				extra := []byte(fmt.Sprintf("user~%04d", from))
				m.put(t, db, extra, val(6000, 400))
				p := db.parts[0]
				p.mu.Lock()
				p.trk.Forget(extra)
				p.mu.Unlock()
				st0, wr0 = partStats(db)
				mergeAll(db.parts[0], false)
				st1, wr1 = partStats(db)
				if remapped, pages := st1.FlashBytesRemapped-st0.FlashBytesRemapped, dataPages(inputs); remapped != pages || st1.DroppedStale != st0.DroppedStale {
					t.Fatalf("%s: a merge of one new key remapped %d bytes of the inputs' %d in data pages and dropped %d stale versions",
						tag, remapped, pages, st1.DroppedStale-st0.DroppedStale)
				}
				if w := st1.FlashBytesWritten - st0.FlashBytesWritten; wr1-wr0 != w || w >= dataPages(inputs) {
					t.Fatalf("%s: a merge of one new key wrote %d device bytes (%d counted)", tag, wr1-wr0, w)
				}
				for i, k := range group {
					p.mu.Lock()
					_, pinned := p.index.Get(k)
					p.mu.Unlock()
					if !pinned {
						t.Fatalf("%s: fixture: hot key %s was demoted", tag, k)
					}
					if v, ok := onFlash(k); !ok || !bytes.Equal(v, val(from+10*i, 400)) {
						t.Fatalf("%s: the stale version of %s left flash", tag, k)
					}
				}

				// Reads see the NVM versions: the model, and not one read
				// served from flash (an NVM read the page cache absorbs
				// counts as DRAM).
				st0 = db.Stats()
				for _, k := range group {
					if _, tier, _, err := db.Get(k); err != nil || tier != TierNVM && tier != TierDRAM {
						t.Fatalf("%s: get %s: tier %v, err %v", tag, k, tier, err)
					}
				}
				st1 = db.Stats()
				if nvm := st1.GetNVM + st1.GetDRAM - st0.GetNVM - st0.GetDRAM; st1.GetFlash != st0.GetFlash || nvm != int64(len(group)) {
					t.Fatalf("%s: %d GETs of pinned keys: %d served from NVM or its page cache, %d by flash", tag, len(group), nvm, st1.GetFlash-st0.GetFlash)
				}
				m.check(t, db, tag+": stale versions kept")
				return group
			}
			// gone checks that no version of keys is left on flash.
			gone := func(keys [][]byte, when string) {
				t.Helper()
				for _, k := range keys {
					if v, ok := onFlash(k); ok && !bytes.Equal(v, m.live[string(k)]) {
						t.Fatalf("%s: flash still holds an old version of %s", when, k)
					}
				}
			}

			// Demote: the NVM version shadows the stale one in the merge.
			group := pinStale(100, "demote")
			if mode == "durable" {
				reopen("demote: crashed with stale versions kept")
			}
			st0, _ := partStats(db)
			mergeAll(db.parts[0], true)
			st1, _ := partStats(db)
			if dropped := st1.DroppedStale - st0.DroppedStale; dropped < int64(len(group)) {
				t.Fatalf("demoting %d keys over their stale versions dropped %d", len(group), dropped)
			}
			gone(group, "demoted")
			m.check(t, db, "demoted")

			// Delete: the tombstone takes the stale version when demoted.
			group = pinStale(300, "delete")
			for _, k := range group {
				m.del(t, db, k)
			}
			m.check(t, db, "deleted")
			if mode == "durable" {
				reopen("delete: crashed before the tombstones moved")
			}
			mergeAll(db.parts[0], true)
			for _, k := range group {
				if _, ok := onFlash(k); ok {
					t.Fatalf("a deleted key's stale version %s outlived its tombstone's demotion", k)
				}
			}
			m.check(t, db, "deleted and demoted")
			reopen("reopened")
		})
	}
}
