package sst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/prismdb/prismdb/internal/bloom"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/storage"
)

func testDev() (*simdev.Device, *simdev.PageCache) {
	return simdev.New(simdev.QLCParams(1 << 30)), simdev.NewPageCache(256 << 10)
}

func buildTable(t *testing.T, dev *simdev.Device, cache *simdev.PageCache, name string, n int) *Table {
	t.Helper()
	w := NewWriter(dev, cache, name, 0)
	for i := 0; i < n; i++ {
		err := w.Add(Record{
			Key:     []byte(fmt.Sprintf("key-%06d", i)),
			Value:   []byte(fmt.Sprintf("value-%06d", i)),
			Version: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	w.Add(Record{Key: []byte("b"), Version: 1})
	if err := w.Add(Record{Key: []byte("a"), Version: 2}); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := w.Add(Record{Key: []byte("b"), Version: 2}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	if _, err := w.Finish(nil); err == nil {
		t.Fatal("empty Finish must fail")
	}
}

func TestGetFound(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 1000)
	clk := simdev.NewClock()
	for _, i := range []int{0, 1, 499, 500, 998, 999} {
		key := []byte(fmt.Sprintf("key-%06d", i))
		rec, ok, err := tbl.Get(clk, key)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key, ok, err)
		}
		if string(rec.Value) != fmt.Sprintf("value-%06d", i) || rec.Version != uint64(i+1) {
			t.Fatalf("Get(%s) = %+v", key, rec)
		}
	}
	if tbl.Count() != 1000 {
		t.Fatalf("Count = %d", tbl.Count())
	}
}

func TestGetAbsent(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 100)
	dev.ResetStats()
	misses := 0
	for i := 0; i < 1000; i++ {
		_, ok, err := tbl.Get(nil, []byte(fmt.Sprintf("nokey-%06d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("found absent key")
		}
		misses++
	}
	// Bloom filter should have stopped almost all flash reads.
	if st := dev.Stats(); st.ReadOps > int64(misses/10) {
		t.Fatalf("bloom filter ineffective: %d reads for %d absent keys", st.ReadOps, misses)
	}
}

func TestSmallestLargestOverlaps(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 100)
	if string(tbl.Smallest()) != "key-000000" || string(tbl.Largest()) != "key-000099" {
		t.Fatalf("bounds %q..%q", tbl.Smallest(), tbl.Largest())
	}
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"key-000050", "key-000060", true},
		{"key-000099", "key-000200", true},
		{"key-000100", "key-000200", false},
		{"a", "key-000000", true},
		{"a", "b", false},
	}
	for _, c := range cases {
		if got := tbl.Overlaps([]byte(c.lo), []byte(c.hi)); got != c.want {
			t.Fatalf("Overlaps(%s,%s) = %v", c.lo, c.hi, got)
		}
	}
	if !tbl.Overlaps(nil, nil) {
		t.Fatal("unbounded range must overlap")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dev, cache := testDev()
	buildTable(t, dev, cache, "t1", 500)
	clk := simdev.NewClock()
	tbl, err := Open(dev, cache, "t1", clk)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 500 {
		t.Fatalf("Count = %d", tbl.Count())
	}
	if string(tbl.Smallest()) != "key-000000" || string(tbl.Largest()) != "key-000499" {
		t.Fatalf("bounds %q..%q", tbl.Smallest(), tbl.Largest())
	}
	rec, ok, _ := tbl.Get(nil, []byte("key-000250"))
	if !ok || string(rec.Value) != "value-000250" {
		t.Fatalf("Get after open: %+v ok=%v", rec, ok)
	}
	if clk.Now() == 0 {
		t.Fatal("Open should charge metadata read I/O")
	}
}

func TestOpenErrors(t *testing.T) {
	dev, cache := testDev()
	if _, err := Open(dev, cache, "missing", nil); err == nil {
		t.Fatal("open of missing file must fail")
	}
	f, _ := dev.CreateFile("junk")
	f.Append(make([]byte, 100))
	if _, err := Open(dev, cache, "junk", nil); err == nil {
		t.Fatal("open of junk file must fail (bad magic)")
	}
}

func TestReadAllOrdered(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 777)
	clk := simdev.NewClock()
	var keys []string
	err := tbl.ReadAll(clk, func(r Record) error {
		keys = append(keys, string(r.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 777 {
		t.Fatalf("ReadAll yielded %d", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("ReadAll out of order")
	}
	if clk.Now() == 0 {
		t.Fatal("ReadAll should charge sequential read")
	}
}

func TestIterSeekAndScan(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 1000)
	it := tbl.Iter(nil, []byte("key-000500"), false)
	var got []string
	for it.Valid() && len(got) < 5 {
		got = append(got, string(it.Record().Key))
		it.Next()
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	want := []string{"key-000500", "key-000501", "key-000502", "key-000503", "key-000504"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iter got %v", got)
		}
	}
	// Seek before the first key.
	it2 := tbl.Iter(nil, []byte("a"), false)
	if !it2.Valid() || string(it2.Record().Key) != "key-000000" {
		t.Fatal("seek before min failed")
	}
	// Seek past the last key.
	it3 := tbl.Iter(nil, []byte("z"), false)
	if it3.Valid() {
		t.Fatal("seek past max should be invalid")
	}
	// Full scan from nil.
	var recs []Record
	for it4 := tbl.Iter(nil, nil, false); it4.Valid(); it4.Next() {
		recs = append(recs, it4.Record())
	}
	if len(recs) != 1000 {
		t.Fatalf("full scan count = %d", len(recs))
	}
	// The table lies in one extent, so every record is a view of the file's
	// storage: overwriting the data section shows through each of them.
	if err := tbl.file.WriteAt(make([]byte, tbl.dataLen), 0); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if !bytes.Equal(r.Key, make([]byte, len(r.Key))) {
			t.Fatalf("record %d (%q) is a copy, want a view of the table's storage", i, r.Key)
		}
	}
}

func TestIterSeekBetweenBlocksBoundary(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 500)
	// Seek to a key that doesn't exist between two present keys.
	it := tbl.Iter(nil, []byte("key-000123x"), false)
	if !it.Valid() || string(it.Record().Key) != "key-000124" {
		t.Fatalf("boundary seek got %q valid=%v", it.Record().Key, it.Valid())
	}
}

func TestIterPrefetchFewerDeviceOps(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "big", 5000)
	dev.ResetStats()
	clk := simdev.NewClock()
	for it := tbl.Iter(clk, nil, false); it.Valid(); it.Next() {
	}
	noPrefetchOps := dev.Stats().ReadOps
	// Fresh identical table so the page cache state is comparable.
	tbl2 := buildTable(t, dev, cache, "big2", 5000)
	dev.ResetStats()
	clk2 := simdev.NewClock()
	for it := tbl2.Iter(clk2, nil, true); it.Valid(); it.Next() {
	}
	prefetchOps := dev.Stats().ReadOps
	if prefetchOps*4 > noPrefetchOps {
		t.Fatalf("prefetch ops %d not ≪ non-prefetch %d", prefetchOps, noPrefetchOps)
	}
}

func TestTombstonesSurvive(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	w.Add(Record{Key: []byte("a"), Version: 1})
	w.Add(Record{Key: []byte("b"), Version: 2, Tombstone: true})
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, _ := tbl.Get(nil, []byte("b"))
	if !ok || !rec.Tombstone {
		t.Fatalf("tombstone lost: %+v ok=%v", rec, ok)
	}
}

func TestQuickTableRoundTrip(t *testing.T) {
	// Property: any sorted unique key set written is fully readable, in
	// order, both by Get and by iteration.
	f := func(seed [][2][]byte) bool {
		m := map[string][]byte{}
		for _, kv := range seed {
			if len(kv[0]) == 0 {
				continue
			}
			m[string(kv[0])] = kv[1]
		}
		if len(m) == 0 {
			return true
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dev, cache := testDev()
		w := NewWriter(dev, cache, "q", 64) // tiny blocks to force many
		for i, k := range keys {
			if err := w.Add(Record{Key: []byte(k), Value: m[k], Version: uint64(i + 1)}); err != nil {
				return false
			}
		}
		tbl, err := w.Finish(nil)
		if err != nil {
			return false
		}
		for _, k := range keys {
			rec, ok, err := tbl.Get(nil, []byte(k))
			if err != nil || !ok || !bytes.Equal(rec.Value, m[k]) {
				return false
			}
		}
		i := 0
		for it := tbl.Iter(nil, nil, false); it.Valid(); it.Next() {
			if string(it.Record().Key) != keys[i] {
				return false
			}
			i++
		}
		return i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestApplyAndPersist(t *testing.T) {
	dev, cache := testDev()
	m, err := NewManifest(dev, cache, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	t1 := buildTable(t, dev, cache, "sst-1", 100)
	t2 := buildTable(t, dev, cache, "sst-2", 100)
	if err := m.Apply([]*Table{t1, t2}, nil); err != nil {
		t.Fatal(err)
	}
	if m.Tables() != 2 || m.TotalCount() != 200 {
		t.Fatalf("tables=%d count=%d", m.Tables(), m.TotalCount())
	}
	// Reload from device.
	m2, err := LoadManifest(dev, cache, "MANIFEST", simdev.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Tables() != 2 || m2.TotalCount() != 200 {
		t.Fatalf("reloaded tables=%d count=%d", m2.Tables(), m2.TotalCount())
	}
}

func TestManifestRefcountProtectsReaders(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t1 := buildTable(t, dev, cache, "sst-1", 50)
	m.Apply([]*Table{t1}, nil)

	snap := m.Acquire()
	if snap.Len() != 1 {
		t.Fatalf("snapshot size %d", snap.Len())
	}
	// Compaction removes t1 while the snapshot is live.
	if err := m.Apply(nil, []*Table{t1}); err != nil {
		t.Fatal(err)
	}
	// File must still exist for the snapshot holder.
	if _, err := dev.OpenFile("sst-1"); err != nil {
		t.Fatal("file deleted while referenced by a reader")
	}
	if _, ok, err := snap.Tables()[0].Get(nil, []byte("key-000010")); err != nil || !ok {
		t.Fatalf("read through snapshot failed: ok=%v err=%v", ok, err)
	}
	snap.Release()
	if _, err := dev.OpenFile("sst-1"); err == nil {
		t.Fatal("file not deleted after last reference released")
	}
}

func TestManifestTablesSortedDisjoint(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	// Build tables out of order.
	w := NewWriter(dev, cache, "sst-b", 0)
	w.Add(Record{Key: []byte("m"), Version: 1})
	tb, _ := w.Finish(nil)
	w2 := NewWriter(dev, cache, "sst-a", 0)
	w2.Add(Record{Key: []byte("a"), Version: 1})
	ta, _ := w2.Finish(nil)
	m.Apply([]*Table{tb, ta}, nil)
	snap := m.Acquire()
	defer snap.Release()
	tabs := snap.Tables()
	if string(tabs[0].Smallest()) != "a" || string(tabs[1].Smallest()) != "m" {
		t.Fatalf("not sorted: %q, %q", tabs[0].Smallest(), tabs[1].Smallest())
	}
}

func TestSnapshotFind(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	// Three disjoint tables: [b..d], [f..h], [m..p].
	mk := func(name string, keys ...string) *Table {
		w := NewWriter(dev, cache, name, 0)
		for i, k := range keys {
			if err := w.Add(Record{Key: []byte(k), Version: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		tb, err := w.Finish(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	m.Apply([]*Table{mk("sst-1", "b", "c", "d"), mk("sst-2", "f", "g", "h"), mk("sst-3", "m", "p")}, nil)
	snap := m.Acquire()
	defer snap.Release()
	for _, tc := range []struct {
		key  string
		want string // smallest key of the table expected, "" = no table
	}{
		{"a", ""}, {"b", "b"}, {"c", "b"}, {"d", "b"}, {"e", ""},
		{"f", "f"}, {"h", "f"}, {"i", ""}, {"m", "m"}, {"n", "m"},
		{"p", "m"}, {"q", ""},
	} {
		got := snap.Find([]byte(tc.key))
		switch {
		case tc.want == "" && got != nil:
			t.Fatalf("Find(%q) = table %q, want none", tc.key, got.Smallest())
		case tc.want != "" && got == nil:
			t.Fatalf("Find(%q) = none, want table %q", tc.key, tc.want)
		case tc.want != "" && string(got.Smallest()) != tc.want:
			t.Fatalf("Find(%q) = table %q, want %q", tc.key, got.Smallest(), tc.want)
		}
	}
	if got := snap.SearchFrom([]byte("e")); got != 1 {
		t.Fatalf("SearchFrom(e) = %d, want 1", got)
	}
	if got := snap.SearchFrom(nil); got != 0 {
		t.Fatalf("SearchFrom(nil) = %d, want 0", got)
	}
	if got := snap.SearchFrom([]byte("z")); got != 3 {
		t.Fatalf("SearchFrom(z) = %d, want 3", got)
	}
}

// TestSnapshotRefcountConcurrentApply hammers Acquire/Release against
// concurrent Apply calls: every superseded snapshot must drain to zero
// references exactly once, every removed table's file must be deleted when
// its last snapshot goes, and readers must never observe a deleted file.
// Run with -race.
func TestSnapshotRefcountConcurrentApply(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t0 := buildTable(t, dev, cache, "sst-gen0", 50)
	if err := m.Apply([]*Table{t0}, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readerErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := m.Acquire()
				for _, tb := range snap.Tables() {
					if _, _, err := tb.Get(nil, []byte("key-000010")); err != nil {
						readerErr.Store(err)
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}

	// Writer: repeatedly replace the whole table set.
	cur := t0
	for gen := 1; gen <= 60; gen++ {
		next := buildTable(t, dev, cache, fmt.Sprintf("sst-gen%d", gen), 50)
		if err := m.Apply([]*Table{next}, []*Table{cur}); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(done)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatalf("reader observed error: %v", err)
	}

	// Quiescent: only the final table remains, with exactly the current
	// snapshot's single reference; all superseded files are gone.
	if m.Tables() != 1 {
		t.Fatalf("live tables = %d, want 1", m.Tables())
	}
	if refs := m.refsOf(cur); refs != 1 {
		t.Fatalf("final table refs = %d, want 1", refs)
	}
	snap := m.Acquire()
	if got := snap.snapshotRefs(); got != 2 {
		t.Fatalf("acquired snapshot refs = %d, want 2", got)
	}
	snap.Release()
	for gen := 0; gen < 60; gen++ {
		if _, err := dev.OpenFile(fmt.Sprintf("sst-gen%d", gen)); err == nil {
			t.Fatalf("superseded file sst-gen%d not deleted", gen)
		}
	}
}

func TestManifestMetaBytes(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t1 := buildTable(t, dev, cache, "sst-1", 1000)
	m.Apply([]*Table{t1}, nil)
	if m.MetaBytes() <= 0 {
		t.Fatal("MetaBytes should be positive (index + filter on NVM)")
	}
	if m.MetaBytes() != t1.MetaBytes() {
		t.Fatalf("manifest meta %d != table meta %d", m.MetaBytes(), t1.MetaBytes())
	}
}

// bigRecords returns n records of ~1 KiB in key order: a table of them spans
// several file extents, so records, blocks and the metadata straddle chunk
// boundaries.
func bigRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		v := bytes.Repeat([]byte{byte('a' + i%26)}, 1000+i%48)
		copy(v, fmt.Sprintf("v%06d-", i))
		recs[i] = Record{
			Key:       []byte(fmt.Sprintf("user%08d", i)),
			Value:     v,
			Version:   uint64(i + 1),
			Tombstone: i%97 == 0,
		}
	}
	return recs
}

func writeTable(t *testing.T, dev *simdev.Device, cache *simdev.PageCache, name string, recs []Record) *Table {
	t.Helper()
	return finish(t, NewWriter(dev, cache, name, 0), recs)
}

// finish adds recs to w and finishes the table.
func finish(t testing.TB, w *Writer, recs []Record) *Table {
	t.Helper()
	for _, r := range recs {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// referenceFileBytes is the SST file format written the obvious way — the
// way the writer did it before it encoded into chunks: blocks assembled in a
// buffer, then data | index | filter | footer. The chunked writer must
// produce these bytes exactly.
func referenceFileBytes(recs []Record, blockSize int) []byte {
	le := binary.LittleEndian
	var data, blk, idx []byte
	type handle struct {
		off, n  int
		crc     uint32
		lastKey []byte
	}
	var handles []handle
	flush := func(lastKey []byte) {
		handles = append(handles, handle{len(data), len(blk), crc32.Checksum(blk, blockCRCTable), lastKey})
		data = append(data, blk...)
		blk = blk[:0]
	}
	filter := bloom.New(len(recs), 0.01)
	for i, r := range recs {
		var hdr [15]byte
		le.PutUint64(hdr[0:], r.Version)
		le.PutUint16(hdr[8:], uint16(len(r.Key)))
		le.PutUint32(hdr[10:], uint32(len(r.Value)))
		if r.Tombstone {
			hdr[14] = 1
		}
		blk = append(append(append(blk, hdr[:]...), r.Key...), r.Value...)
		filter.Add(r.Key)
		if len(blk) >= blockSize || i == len(recs)-1 {
			flush(r.Key)
		}
	}
	idx = le.AppendUint32(idx, uint32(len(handles)))
	for _, h := range handles {
		idx = le.AppendUint64(idx, uint64(h.off))
		idx = le.AppendUint32(idx, uint32(h.n))
		idx = le.AppendUint32(idx, h.crc)
		idx = le.AppendUint16(idx, uint16(len(h.lastKey)))
		idx = append(idx, h.lastKey...)
	}
	idx = le.AppendUint16(idx, uint16(len(recs[0].Key)))
	idx = append(idx, recs[0].Key...)
	fb := filter.Bytes()
	out := append(append(append([]byte(nil), data...), idx...), fb...)
	out = le.AppendUint64(out, uint64(len(data)))
	out = le.AppendUint64(out, uint64(len(idx)))
	out = le.AppendUint64(out, uint64(len(data)+len(idx)))
	out = le.AppendUint64(out, uint64(len(fb)))
	out = le.AppendUint64(out, uint64(len(recs)))
	return le.AppendUint64(out, footerMagic)
}

func checkReadAll(t *testing.T, tbl *Table, want []Record) {
	t.Helper()
	i := 0
	err := tbl.ReadAll(nil, func(r Record) error {
		if i >= len(want) {
			return fmt.Errorf("more than %d records", len(want))
		}
		w := want[i]
		if !bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Value, w.Value) || r.Version != w.Version || r.Tombstone != w.Tombstone {
			return fmt.Errorf("record %d = %q v%d, want %q v%d", i, r.Key, r.Version, w.Key, w.Version)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("ReadAll yielded %d records, want %d", i, len(want))
	}
}

// The chunked writer's file is byte for byte the format's reference
// encoding, over several extents, and every read path decodes it: ReadAll's
// views (including the records that straddle an extent boundary), point
// reads, iteration, and the per-block checksums.
func TestChunkedWriterMatchesReferenceFormat(t *testing.T) {
	dev, cache := testDev()
	recs := bigRecords(1500)
	tbl := writeTable(t, dev, cache, "big", recs)
	want := referenceFileBytes(recs, DefaultBlockSize)
	if tbl.Size() != int64(len(want)) {
		t.Fatalf("table is %d bytes, reference encoding %d", tbl.Size(), len(want))
	}
	got := make([]byte, tbl.Size())
	if err := tbl.file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked writer's bytes differ from the reference encoding")
	}
	if tbl.Size() < 5*(256<<10) {
		t.Fatalf("table of %d bytes does not span the extents this test is about", tbl.Size())
	}
	checkReadAll(t, tbl, recs)
	for i := 0; i < tbl.NumBlocks(); i++ {
		if ok, _, err := tbl.VerifyBlock(i, nil); err != nil || !ok {
			t.Fatalf("block %d: crc ok=%v err=%v", i, ok, err)
		}
	}
	for _, i := range []int{0, 1, 251, 252, 253, 777, 1499} {
		r, ok, err := tbl.Get(nil, recs[i].Key)
		if err != nil || !ok || !bytes.Equal(r.Value, recs[i].Value) {
			t.Fatalf("Get(%q): ok=%v err=%v", recs[i].Key, ok, err)
		}
	}
	n := 0
	for it := tbl.Iter(nil, nil, true); it.Valid(); it.Next() {
		if !bytes.Equal(it.Record().Key, recs[n].Key) {
			t.Fatalf("iter record %d = %q", n, it.Record().Key)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("iterated %d records, want %d", n, len(recs))
	}
	reopened, err := Open(dev, cache, "big", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReadAll(t, reopened, recs)
}

// Durable mode: a table written through the chunked path lands on disk as
// the reference encoding (so data directories written before and after the
// change are interchangeable), one WriteAt per chunk, and reopens through
// Open on a fresh device; ReadBlocksInto then reads each block with one
// ReadAt into a scratch buffer, which a second table's read after Reset
// reuses.
func TestChunkedWriterOnBackedFiles(t *testing.T) {
	path := t.TempDir()
	fi := &storage.FaultInjector{}
	dir, err := storage.OpenDir(path, fi)
	if err != nil {
		t.Fatal(err)
	}
	dev := simdev.New(simdev.QLCParams(1 << 30))
	if err := dev.AttachBacking(dir.Backing(storage.DirFlash)); err != nil {
		t.Fatal(err)
	}
	recs := bigRecords(1500)
	before := fi.ScopeOps(storage.ScopeSST)
	tbl := writeTable(t, dev, nil, "p0-sst-000001", recs)
	want := referenceFileBytes(recs, DefaultBlockSize)
	if writes, chunks := fi.ScopeOps(storage.ScopeSST)-before, (int64(len(want))+(256<<10)-1)/(256<<10); writes != chunks {
		t.Fatalf("writing the table took %d SST-scope I/Os, want one per chunk = %d", writes, chunks)
	}
	if err := tbl.file.Sync(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(path, storage.DirFlash, "p0-sst-000001"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("file on disk differs from the reference encoding")
	}
	small := writeTable(t, dev, nil, "p0-sst-000002", recs[:10])
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	dir, err = storage.OpenDir(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	dev2 := simdev.New(simdev.QLCParams(1 << 30))
	if err := dev2.AttachBacking(dir.Backing(storage.DirFlash)); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dev2, nil, "p0-sst-000001", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReadAll(t, reopened, recs)
	reopenedSmall, err := Open(dev2, nil, small.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rs ReadScratch
	var first []byte
	count := func(tbl *Table) (n int) {
		if err := tbl.ReadBlocksInto(nil, &rs, func(_ int, _ []byte, r Record) error {
			if n == 0 {
				first = r.Key
			}
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(reopened); n != len(recs) {
		t.Fatalf("read %d records, want %d", n, len(recs))
	}
	big := first
	rs.Reset()
	if n := count(reopenedSmall); n != 10 {
		t.Fatalf("read %d records, want 10", n)
	}
	if &big[0] != &first[0] {
		t.Fatal("after Reset the second table's read should reuse the scratch buffer")
	}
}

// ReadBlocksInto hands out every block's bytes, never nil, with the CRC its
// index entry records. On an in-memory table they are the file's own storage
// unless the block spans two extents, when they are a copy; on a backed
// table they are copies in the scratch, whose buffers a read after Reset
// reuses without allocating.
func TestReadBlocksIntoRaw(t *testing.T) {
	// raws reads tbl through rs and returns each block's raw, checked
	// against the block's index entry.
	raws := func(t *testing.T, tbl *Table, rs *ReadScratch) [][]byte {
		t.Helper()
		out := make([][]byte, tbl.NumBlocks())
		if err := tbl.ReadBlocksInto(nil, rs, func(i int, raw []byte, _ Record) error {
			out[i] = raw
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, raw := range out {
			h := tbl.index[i]
			if raw == nil || int64(len(raw)) != h.len || crc32.Checksum(raw, blockCRCTable) != h.crc {
				t.Fatalf("block %d: raw of %d bytes (nil=%v) does not match its index entry", i, len(raw), raw == nil)
			}
		}
		return out
	}
	// inStorage overwrites tbl's data section with zeros and reports, per
	// block, whether its raw saw the write: whether it is the file's storage.
	inStorage := func(t *testing.T, tbl *Table, raws [][]byte) []bool {
		t.Helper()
		if err := tbl.file.WriteAt(make([]byte, tbl.dataLen), 0); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(raws))
		for i, raw := range raws {
			out[i] = bytes.Equal(raw, make([]byte, len(raw)))
		}
		return out
	}

	t.Run("aligned", func(t *testing.T) {
		dev, cache := testDev()
		tbl := writeAligned(t, dev, cache, "aligned", bigRecords(300))
		for i, view := range inStorage(t, tbl, raws(t, tbl, new(ReadScratch))) {
			if !view {
				t.Fatalf("block %d of an in-memory aligned table is a copy, want the file's storage", i)
			}
		}
	})
	t.Run("packed", func(t *testing.T) {
		dev, cache := testDev()
		tbl := writeTable(t, dev, cache, "packed", bigRecords(1500))
		const extent = 256 << 10 // simdev's extent size
		spanning := 0
		for i, view := range inStorage(t, tbl, raws(t, tbl, new(ReadScratch))) {
			h := tbl.index[i]
			spans := h.off/extent != (h.off+h.len-1)/extent
			if spans {
				spanning++
			}
			if view == spans {
				t.Fatalf("block %d at [%d,+%d): storage=%v, want the file's storage exactly when the block lies in one extent", i, h.off, h.len, view)
			}
		}
		if spanning == 0 {
			t.Fatal("no block spans two extents: the table is too small for this test")
		}
	})
	t.Run("backed", func(t *testing.T) {
		dir, err := storage.OpenDir(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		dev := simdev.New(simdev.QLCParams(1 << 30))
		if err := dev.AttachBacking(dir.Backing(storage.DirFlash)); err != nil {
			t.Fatal(err)
		}
		tbl := writeTable(t, dev, nil, "p0-sst-000001", bigRecords(1500))
		var rs ReadScratch
		first := raws(t, tbl, &rs)
		rs.Reset()
		for i, raw := range raws(t, tbl, &rs) {
			if &raw[0] != &first[i][0] {
				t.Fatalf("block %d: the read after Reset did not reuse the block's buffer", i)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			rs.Reset()
			if err := tbl.ReadBlocksInto(nil, &rs, func(int, []byte, Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a read after Reset allocated %.0f times, want 0", allocs)
		}
	})
}

// While a snapshot references a table the manifest has retired, the table's
// storage is not recycled: ReadAll views taken before the retirement stay
// intact however many tables are written meanwhile. Once the snapshot goes,
// the next writer's first chunk IS the retired table's extent.
func TestSnapshotKeepsRetiredTableStorage(t *testing.T) {
	dev, cache := testDev()
	m, err := NewManifest(dev, cache, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	recs := bigRecords(40) // one extent
	old := writeTable(t, dev, cache, "old", recs)
	if err := m.Apply([]*Table{old}, nil); err != nil {
		t.Fatal(err)
	}
	snap := m.Acquire()
	var views []Record
	if err := old.ReadAll(nil, func(r Record) error { views = append(views, r); return nil }); err != nil {
		t.Fatal(err)
	}

	// A merge retires the table; later rounds write more tables.
	scribble := bigRecords(80)
	for i := range scribble {
		scribble[i].Value = bytes.Repeat([]byte{'#'}, len(scribble[i].Value))
	}
	if err := m.Apply([]*Table{writeTable(t, dev, cache, "new", scribble[:40])}, []*Table{old}); err != nil {
		t.Fatal(err)
	}
	writeTable(t, dev, cache, "newer", scribble[40:])
	for i, v := range views {
		if !bytes.Equal(v.Key, recs[i].Key) || !bytes.Equal(v.Value, recs[i].Value) {
			t.Fatalf("view %d of the retired table changed under a held snapshot", i)
		}
	}
	if r, ok, err := old.Get(nil, recs[7].Key); err != nil || !ok || !bytes.Equal(r.Value, recs[7].Value) {
		t.Fatalf("Get on the retired table under a held snapshot: ok=%v err=%v", ok, err)
	}

	snap.Release() // last reference: the file goes, its extent is recycled
	if _, err := dev.OpenFile("old"); err == nil {
		t.Fatal("retired table's file should be removed with its last reference")
	}
	if c := dev.Chunk(); &c[recordHeaderLen] != &views[0].Key[0] {
		t.Fatal("the retired table's extent should be the next chunk a writer draws")
	}
}

// AppendValue, the filter-free point read that decodes a block where it
// lies, answers every key as Get does — hits, tombstones, and misses inside
// and outside the table's range — on an in-memory table, whose blocks are
// views of its extents (some split across two), and on a backed one, whose
// blocks are read into a pooled buffer.
func TestAppendValueMatchesGet(t *testing.T) {
	recs := bigRecords(1500)
	var keys [][]byte
	for _, r := range recs {
		keys = append(keys, r.Key, append(append([]byte(nil), r.Key...), '5'))
	}
	keys = append(keys, []byte("a"), []byte("zzz"))
	check := func(t *testing.T, tbl *Table) {
		t.Helper()
		clk := simdev.NewClock()
		prefix := []byte("prefix:")
		for _, k := range keys {
			rec, found, err := tbl.Get(clk, k)
			if err != nil {
				t.Fatal(err)
			}
			if !tbl.MayContain(k) {
				continue // Get answered from the filter; AppendValue's caller does too
			}
			got, ok, tomb, err := tbl.AppendValue(clk, k, prefix)
			if err != nil {
				t.Fatal(err)
			}
			want := prefix
			if found {
				want = append(append([]byte(nil), prefix...), rec.Value...)
			}
			if ok != found || tomb != (found && rec.Tombstone) || !bytes.Equal(got, want) {
				t.Fatalf("%q: AppendValue = %q found=%v tomb=%v; Get = %q found=%v tomb=%v",
					k, got, ok, tomb, rec.Value, found, rec.Tombstone)
			}
		}
	}

	dev, cache := testDev()
	mem := writeTable(t, dev, cache, "mem", recs)
	straddles := 0
	for _, h := range mem.index {
		if h.off/(256<<10) != (h.off+h.len-1)/(256<<10) {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("fixture: no block straddles an extent boundary")
	}
	check(t, mem)

	dir, err := storage.OpenDir(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	bdev := simdev.New(simdev.QLCParams(1 << 30))
	if err := bdev.AttachBacking(dir.Backing(storage.DirFlash)); err != nil {
		t.Fatal(err)
	}
	check(t, writeTable(t, bdev, simdev.NewPageCache(256<<10), "backed", recs))
}
