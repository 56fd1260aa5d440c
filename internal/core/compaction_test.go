package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/storage"
)

// mergeAll runs one merge round over the partition's whole flash log, the
// round a demotion job runs on a one-range log; forceAll ignores pinning.
func mergeAll(p *partition, forceAll bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.man.Acquire()
	tables := append([]*sst.Table(nil), snap.Tables()...)
	snap.Release()
	p.mergeRound(simdev.NewBGClock(), candRange{tables: tables}, forceAll)
}

// flashLog returns every record of the partition's flash log in key order,
// cloned, and its tables.
func flashLog(t *testing.T, p *partition) ([]sst.Record, []*sst.Table) {
	t.Helper()
	snap := p.man.Acquire()
	defer snap.Release()
	var recs []sst.Record
	for _, tbl := range snap.Tables() {
		if err := tbl.ReadAll(nil, func(r sst.Record) error {
			recs = append(recs, r.Clone())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return recs, append([]*sst.Table(nil), snap.Tables()...)
}

// nvmRecords returns every NVM record the partition's index maps, by key.
func nvmRecords(t *testing.T, p *partition) map[string]slab.Record {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[string]slab.Record{}
	p.index.Range(nil, nil, func(it btree.Item) bool {
		rec, _, err := p.slabs.ReadSlotInto(simdev.NewBGClock(), slab.Loc(it.Val), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.Key = append([]byte(nil), rec.Key...)
		rec.Value = append([]byte(nil), rec.Value...)
		out[string(rec.Key)] = rec
		return true
	})
	return out
}

// fullRewrite is what a merge of the whole log must leave on flash, the
// merge that rewrites every record: the demoted NVM records over their flash
// versions, tombstones deleting theirs, and the flash versions of keys that
// stayed pinned in NVM dropped — except a flash record identical in key,
// version and value to a pinned copy that is clean (a promoted copy no write
// has touched since), which is not stale and stays. A round may keep one
// more kind of record than this model does: see withoutKeptStale.
func fullRewrite(flash []sst.Record, nvm map[string]slab.Record, stayed, clean map[string]bool) []sst.Record {
	out := map[string]sst.Record{}
	for _, r := range flash {
		k := string(r.Key)
		n := nvm[k]
		if !stayed[k] || clean[k] && !n.Tombstone && !r.Tombstone && n.Version == r.Version && bytes.Equal(n.Value, r.Value) {
			out[k] = r
		}
	}
	for k, r := range nvm {
		switch {
		case stayed[k]:
		case r.Tombstone:
			delete(out, k)
		default:
			out[k] = sst.Record{Key: r.Key, Value: r.Value, Version: r.Version}
		}
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]sst.Record, len(keys))
	for i, k := range keys {
		recs[i] = out[k]
	}
	return recs
}

// flashBlocks returns the records of every data block of tables, cloned,
// block by block in key order.
func flashBlocks(t *testing.T, tables []*sst.Table) [][]sst.Record {
	t.Helper()
	var blocks [][]sst.Record
	for _, tbl := range tables {
		var rs sst.ReadScratch
		first := len(blocks)
		if err := tbl.ReadBlocksInto(nil, &rs, func(i int, _ []byte, r sst.Record) error {
			if len(blocks) == first+i {
				blocks = append(blocks, nil)
			}
			blocks[first+i] = append(blocks[first+i], r.Clone())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return blocks
}

// withoutKeptStale checks got, the flash log a merge round left, against
// want, its full-rewrite model, and returns how many records got holds
// beyond it. They may differ in one way only: a flash record of a key whose
// NVM version stayed pinned and dirty (dirtyPinned) may stay in a block the
// round otherwise left unchanged. Over the key span of its input block (in
// holds the round's input blocks), got holds exactly that block's records.
func withoutKeptStale(got, want []sst.Record, in [][]sst.Record, dirtyPinned map[string]bool) (int, error) {
	// span returns got's records over the key span of block b.
	span := func(b []sst.Record) []sst.Record {
		lo := sort.Search(len(got), func(i int) bool { return bytes.Compare(got[i].Key, b[0].Key) >= 0 })
		hi := sort.Search(len(got), func(i int) bool { return bytes.Compare(got[i].Key, b[len(b)-1].Key) > 0 })
		return got[lo:hi]
	}
	wantAt := map[string]sst.Record{}
	for _, r := range want {
		wantAt[string(r.Key)] = r
	}
	var rest []sst.Record
	for _, r := range got {
		if _, ok := wantAt[string(r.Key)]; ok || !dirtyPinned[string(r.Key)] {
			rest = append(rest, r)
			continue
		}
		b := sort.Search(len(in), func(i int) bool { return bytes.Compare(in[i][len(in[i])-1].Key, r.Key) >= 0 })
		if b == len(in) || bytes.Compare(in[b][0].Key, r.Key) > 0 || sameRecords(span(in[b]), in[b]) != nil {
			return 0, fmt.Errorf("stale record %q v%d stayed in a block the round changed", r.Key, r.Version)
		}
	}
	return len(got) - len(rest), sameRecords(rest, want)
}

func sameRecords(got, want []sst.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) || g.Version != w.Version || g.Tombstone != w.Tombstone {
			return fmt.Errorf("record %d = %q v%d, want %q v%d", i, g.Key, g.Version, w.Key, w.Version)
		}
	}
	return nil
}

// A merge round writes only the blocks it changes, and what it leaves on
// flash is what a full rewrite would, but for the stale versions under
// pinned dirty keys that it leaves in unchanged blocks: for a run of rounds
// over a churning key set (updates of varied size, deletes, inserts between
// existing keys, hot keys the mapper pins, copies a promotion round makes of
// warm flash keys, and copies of untracked flash keys, some read hot and
// pinned and some left cold and demoted clean), the records read back equal
// the full-rewrite model with that one exception (withoutKeptStale), every
// block of every output table verifies, some blocks are carried over, and
// the device is charged exactly the written bytes — every output byte is
// either charged or remapped. Run in both compaction modes, and in durable
// mode across a crash, after which the tables Open reads back from disk are
// carried over like fresh ones and every copy is dirty.
func TestMergeWritesOnlyChangedBlocks(t *testing.T) {
	for _, mode := range []string{"sync", "async", "durable"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			options := func() Options {
				o := testOptions()
				if mode == "durable" {
					o = durableOptions(dir)
				}
				if mode == "async" {
					o.CompactionMode = CompactionAsync
				}
				o.NVMBudget = 64 << 20 // rounds run only when the test asks
				o.TrackerCapacity = 64 // a promoted key goes cold within a few rounds
				return o
			}
			db, err := Open(options())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			rng := rand.New(rand.NewSource(7))
			value := func() []byte { return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 100+rng.Intn(1400)) }
			const keys = 400 // even indexes; odd ones are inserted between them
			for i := 0; i < keys; i++ {
				mustPut(t, db, key(2*i), value())
			}
			mergeAll(db.parts[0], true)

			var remapped, written, evicted, kept, keptStale int64
			var want []sst.Record
			// clean models the partition's clean marks: a promoted copy until
			// a write of its key, its leaving NVM, or a crash.
			clean := map[string]bool{}
			put := func(k []byte) {
				mustPut(t, db, k, value())
				delete(clean, string(k))
			}
			for round := 0; round < 8; round++ {
				if mode == "durable" && round == 4 {
					clean = map[string]bool{}
					db.crashDurable()
					if db, err = Open(options()); err != nil {
						t.Fatal(err)
					}
					got, _ := flashLog(t, db.parts[0])
					if err := sameRecords(got, want); err != nil {
						t.Fatalf("flash log after crash and reopen: %v", err)
					}
					remapped, written, evicted, kept, keptStale = 0, 0, 0, 0, 0
				}
				for i := 0; i < 40; i++ {
					put(key(2 * rng.Intn(keys)))
				}
				for i := 0; i < 15; i++ {
					put(key(2*rng.Intn(keys) + 1))
				}
				for i := 0; i < 10; i++ {
					k := key(rng.Intn(2 * keys))
					if _, err := db.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(clean, string(k))
				}
				for i := 0; i < 60; i++ { // a hot set for the mapper to pin
					db.Get(key(2 * rng.Intn(20)))
				}
				// A warm run of keys, for a promotion round to copy into NVM.
				warm := rng.Intn(keys - 12)
				for rep := 0; rep < 4; rep++ {
					for i := warm; i < warm+12; i++ {
						db.Get(key(2 * i))
					}
				}
				p := db.parts[0]
				resident := nvmRecords(t, p)
				p.mu.Lock()
				p.syncClockLocked()
				p.drainReadsLocked()
				p.promotionRound(p.clk.Now())
				p.mu.Unlock()
				for k := range nvmRecords(t, p) {
					if _, ok := resident[k]; !ok {
						clean[k] = true
					}
				}
				// Up to six more copies of flash keys nothing tracks: three
				// left cold for the merge to evict, the rest read hot for it to
				// pin, so that rounds have both. (Right after a reopen, the WAL
				// replay has put every key back in NVM, and there are none.)
				flashNow, _ := flashLog(t, p)
				nvmNow := nvmRecords(t, p)
				var copies [][]byte
				p.mu.Lock()
				for _, i := range rng.Perm(len(flashNow)) {
					r := flashNow[i]
					_, resident := nvmNow[string(r.Key)]
					if _, tracked := p.trk.Clock(r.Key); !resident && !tracked && !r.Tombstone && len(copies) < 6 {
						copies = append(copies, r.Key)
					}
				}
				p.mu.Unlock()
				promoteKeys(t, db, copies)
				for _, k := range copies {
					clean[string(k)] = true
				}
				for rep := 0; rep < 4; rep++ {
					for _, k := range copies[min(3, len(copies)):] {
						db.Get(k)
					}
				}
				flashBefore, inputs := flashLog(t, p)
				blocksBefore := flashBlocks(t, inputs)
				nvmBefore := nvmRecords(t, p)
				dev := p.opts.Flash
				p.mu.Lock()
				st0, wr0 := p.stats, dev.Stats().WriteBytes
				p.mu.Unlock()

				mergeAll(p, false)

				p.mu.Lock()
				st1, wr1 := p.stats, dev.Stats().WriteBytes
				stayed, dirtyPinned := map[string]bool{}, map[string]bool{}
				for k := range nvmBefore {
					if _, ok := p.index.Get([]byte(k)); ok {
						stayed[k] = true
						dirtyPinned[k] = !clean[k]
					} else {
						delete(clean, k)
					}
				}
				p.mu.Unlock()
				got, tables := flashLog(t, p)
				n, err := withoutKeptStale(got, fullRewrite(flashBefore, nvmBefore, stayed, clean), blocksBefore, dirtyPinned)
				if err != nil {
					t.Fatalf("round %d: flash log differs from a full rewrite: %v", round, err)
				}
				want = got
				keptStale += int64(n)
				evicted += st1.CleanEvictions - st0.CleanEvictions
				kept += st1.FlashVersionsKept - st0.FlashVersionsKept
				var size int64
				for _, tbl := range tables {
					size += tbl.Size()
					if !tbl.PageAligned() {
						t.Fatalf("round %d: output table %s is not page-aligned", round, tbl.Name())
					}
					for i := 0; i < tbl.NumBlocks(); i++ {
						if ok, _, err := tbl.VerifyBlock(i, nil); err != nil || !ok {
							t.Fatalf("round %d: %s block %d: crc ok=%v err=%v", round, tbl.Name(), i, ok, err)
						}
					}
				}
				w, r := st1.FlashBytesWritten-st0.FlashBytesWritten, st1.FlashBytesRemapped-st0.FlashBytesRemapped
				if wr1-wr0 != w {
					t.Fatalf("round %d: the device was charged %d bytes, the round counted %d", round, wr1-wr0, w)
				}
				if w+r != size {
					t.Fatalf("round %d: %d bytes written + %d remapped for %d bytes of output tables", round, w, r, size)
				}
				remapped += r
				written += w
			}
			if remapped == 0 || written == 0 {
				t.Fatalf("rounds since the last open wrote %d bytes and remapped %d; want both", written, remapped)
			}
			if evicted == 0 || kept == 0 || keptStale == 0 {
				t.Fatalf("rounds evicted %d clean copies, kept %d flash versions under pinned clean ones and %d under pinned dirty ones; want all three",
					evicted, kept, keptStale)
			}
			t.Logf("rounds since the last open: %d bytes written, %d remapped; %d clean copies evicted, %d flash versions kept under clean copies, %d stale ones under dirty",
				written, remapped, evicted, kept, keptStale)
		})
	}
}

// A data directory whose SSTs are in the packed layout — every table a
// build before the page-aligned layout wrote — opens, serves, and merges:
// the first merge re-encodes its packed inputs (nothing in them can be
// remapped), its output is page-aligned, and the next merge carries
// unchanged blocks over.
func TestDurablePackedTablesOpenServeAndMerge(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	model := map[int][]byte{}
	for i := 0; i < n; i++ {
		model[i] = val(i, 1024)
		mustPut(t, db, key(i), model[i])
	}
	mergeAll(db.parts[0], true)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite every table in the packed layout under its own name.
	sd, err := storage.OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := simdev.New(simdev.QLCParams(512 << 20))
	if err := dev.AttachBacking(sd.Backing(storage.DirFlash)); err != nil {
		t.Fatal(err)
	}
	repacked := 0
	for _, name := range dev.ListFiles() {
		if !strings.Contains(name, "-sst-") {
			continue
		}
		tbl, err := sst.Open(dev, nil, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		var recs []sst.Record
		if err := tbl.ReadAll(nil, func(r sst.Record) error { recs = append(recs, r.Clone()); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := dev.RemoveFile(name); err != nil {
			t.Fatal(err)
		}
		w := sst.NewWriter(dev, nil, name, 0)
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Finish(nil); err != nil {
			t.Fatal(err)
		}
		repacked++
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	if repacked == 0 {
		t.Fatal("no SST to repack")
	}

	check := func(db *DB) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, _, _, err := db.Get(key(i))
			if err != nil || !bytes.Equal(v, model[i]) {
				t.Fatalf("key %d: %d bytes, err %v", i, len(v), err)
			}
		}
	}
	update := func(db *DB, every int) {
		for i := 0; i < n; i += every {
			model[i] = val(i+every, 1024)
			mustPut(t, db, key(i), model[i])
		}
	}
	remappedBy := func(db *DB) int64 {
		p := db.parts[0]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.stats.FlashBytesRemapped
	}
	db, err = Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, tables := flashLog(t, db.parts[0])
	for _, tbl := range tables {
		if tbl.PageAligned() {
			t.Fatalf("%s reopened page-aligned, want packed", tbl.Name())
		}
	}
	check(db)
	update(db, 7)
	mergeAll(db.parts[0], true)
	if r := remappedBy(db); r != 0 {
		t.Fatalf("a merge of packed tables remapped %d bytes", r)
	}
	check(db)
	update(db, 11)
	mergeAll(db.parts[0], true)
	if remappedBy(db) == 0 {
		t.Fatal("a merge of the page-aligned tables it wrote remapped nothing")
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(durableOptions(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db)
}

// An input table that does not read back whole stops the round before it
// merges: a block whose first record claims more bytes than the block holds
// is corruption the read reports, and a round that merged what it had read so
// far and retired the table would lose every record after that block. The
// round degrades the DB instead, retires nothing and demotes nothing, and
// every key outside the corrupt block still reads back.
func TestMergeRoundKeepsUnreadableInput(t *testing.T) {
	dir := t.TempDir()
	o := durableOptions(dir)
	o.NVMBudget = 64 << 20 // rounds run only when the test asks
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.parts[0]
	const n = 300
	model := map[int][]byte{}
	for i := 0; i < n; i++ {
		model[i] = val(i, 1024)
		mustPut(t, db, key(i), model[i])
	}
	mergeAll(p, true)
	for i := 0; i < n; i += 10 {
		model[i] = val(i+1, 1024)
		mustPut(t, db, key(i), model[i])
	}
	tables := func() []*sst.Table {
		snap := p.man.Acquire()
		defer snap.Release()
		return append([]*sst.Table(nil), snap.Tables()...)
	}
	before := tables()
	victim := before[len(before)/2]
	if victim.NumBlocks() < 3 {
		t.Fatalf("%s has %d blocks; want one before and one after the corrupt block", victim.Name(), victim.NumBlocks())
	}
	// Block 1 starts on the second page; its first record's value length
	// (bytes 10-14 of the record header) now runs far past the block.
	f, err := os.OpenFile(filepath.Join(dir, "flash", victim.Name()), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var vl [4]byte
	binary.LittleEndian.PutUint32(vl[:], 1<<30)
	if _, err := f.WriteAt(vl[:], simdev.PageSize+10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	demoted := db.Stats().Demoted

	mergeAll(p, false)

	if h := db.Health(); h.State != StateDegraded || !strings.Contains(h.Cause, victim.Name()) {
		t.Fatalf("health after a round over a corrupt input = %+v, want degraded naming %s", h, victim.Name())
	}
	if after := tables(); len(after) != len(before) || after[len(after)/2] != victim {
		t.Fatalf("the round retired its input tables: %d tables before, %d after", len(before), len(after))
	}
	if st := db.Stats(); st.Demoted != demoted {
		t.Fatalf("the aborted round demoted %d objects", st.Demoted-demoted)
	}
	unreadable := 0
	for i := 0; i < n; i++ {
		v, _, _, err := db.Get(key(i))
		switch {
		case err != nil:
			unreadable++ // a record of the corrupt block
		case !bytes.Equal(v, model[i]):
			t.Fatalf("key %d: %d bytes, want its %d", i, len(v), len(model[i]))
		}
	}
	if unreadable > 3 {
		t.Fatalf("%d keys unreadable; a block holds 3", unreadable)
	}
}

// A forced round demotes everything in its range, so it must pick a range
// that holds NVM objects. Here the bucket estimate is as wrong as it gets:
// every key indexes to 0, so approx-MSC sees NVM objects only in the range
// whose bounds span the whole key space, the last one, while the writes all
// land in the first. Its ordinary rounds free nothing; the forced round
// that follows, picking by the index, frees the first range within the job
// that crossed the high watermark.
func TestForcedRoundPicksByIndex(t *testing.T) {
	o := testOptions()
	o.KeyIndex = func([]byte) uint64 { return 0 }
	o.PowerK = 64 // every range is a candidate: the estimate alone decides
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.parts[0]
	for i := 0; i < 300; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	mergeAll(p, true)
	if tables := p.man.Tables(); tables < 4 {
		t.Fatalf("flash log of %d tables; want several ranges", tables)
	}
	high := int64(float64(p.nvmBudget) * p.opts.HighWatermark)
	for i := 0; i < 600; i++ {
		// Keys between key(1) and key(2): all in the first range.
		mustPut(t, db, []byte(fmt.Sprintf("%s-%04d", key(1), i)), val(i, 1024))
		p.mu.Lock()
		usage, forced := p.usage(), p.stats.Compactions
		p.mu.Unlock()
		if usage >= high {
			t.Fatalf("put %d: usage %d B after %d compaction rounds, over the high watermark %d B", i, usage, forced, high)
		}
	}
	st := db.Stats()
	if st.Demoted == 0 {
		t.Fatal("no object was demoted")
	}
}

// A round that finds nothing to demote in its range was a selection miss,
// and the next round ranks every range by the index with pinning still
// applied. With the estimate as wrong as in TestForcedRoundPicksByIndex,
// ordinary rounds pick a range with no NVM object; the round after each
// miss picks the range the writes land in and demotes its cold objects
// there. The hot keys in that range stay in NVM, where a forced round,
// which ignores pinning, would have demoted them with the rest.
func TestRoundAfterMissRanksByIndex(t *testing.T) {
	o := testOptions()
	o.KeyIndex = func([]byte) uint64 { return 0 }
	o.PowerK = 64
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.parts[0]
	for i := 0; i < 300; i++ {
		mustPut(t, db, key(i), val(i, 1024))
	}
	mergeAll(p, true)
	inRange := func(i int) []byte { return []byte(fmt.Sprintf("%s-%04d", key(1), i)) }
	var hot [][]byte
	for i := 0; i < 8; i++ {
		hot = append(hot, inRange(i))
		mustPut(t, db, hot[i], val(i, 1024))
	}
	high := int64(float64(p.nvmBudget) * p.opts.HighWatermark)
	for i := len(hot); i < 600; i++ {
		for _, k := range hot {
			db.Get(k)
		}
		mustPut(t, db, inRange(i), val(i, 1024))
		p.mu.Lock()
		usage := p.usage()
		p.mu.Unlock()
		if usage >= high {
			t.Fatalf("put %d: usage %d B over the high watermark %d B", i, usage, high)
		}
	}
	if db.Stats().Demoted == 0 {
		t.Fatal("no object was demoted")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range hot {
		if _, ok := p.index.Get(k); !ok {
			t.Fatalf("hot key %s was demoted", k)
		}
	}
}
