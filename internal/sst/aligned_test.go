package sst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"github.com/prismdb/prismdb/internal/bloom"
	"github.com/prismdb/prismdb/internal/simdev"
)

func writeAligned(t *testing.T, dev *simdev.Device, cache *simdev.PageCache, name string, recs []Record) *Table {
	t.Helper()
	return finish(t, NewAlignedWriter(dev, cache, name, 0, 0), recs)
}

// alignedReferenceFileBytes is the page-aligned layout written the obvious
// way: a block takes records while they fit in its pages, and every block,
// the last one included, is padded with zeros to the next page.
func alignedReferenceFileBytes(recs []Record, blockSize int) []byte {
	le := binary.LittleEndian
	capacity := (blockSize + simdev.PageSize - 1) / simdev.PageSize * simdev.PageSize
	var data, blk, idx []byte
	filter := bloom.New(len(recs), 0.01)
	flush := func(lastKey []byte) {
		idx = le.AppendUint64(idx, uint64(len(data)))
		idx = le.AppendUint32(idx, uint32(len(blk)))
		idx = le.AppendUint32(idx, crc32.Checksum(blk, blockCRCTable))
		idx = le.AppendUint16(idx, uint16(len(lastKey)))
		idx = append(idx, lastKey...)
		data = append(data, blk...)
		for len(data)%simdev.PageSize != 0 {
			data = append(data, 0)
		}
		blk = blk[:0]
	}
	nBlocks := 0
	for i, r := range recs {
		var hdr [15]byte
		le.PutUint64(hdr[0:], r.Version)
		le.PutUint16(hdr[8:], uint16(len(r.Key)))
		le.PutUint32(hdr[10:], uint32(len(r.Value)))
		if r.Tombstone {
			hdr[14] = 1
		}
		enc := append(append(hdr[:], r.Key...), r.Value...)
		if len(blk) > 0 && len(blk)+len(enc) > capacity {
			flush(recs[i-1].Key)
			nBlocks++
		}
		blk = append(blk, enc...)
		filter.Add(r.Key)
		if len(blk) >= capacity {
			flush(r.Key)
			nBlocks++
		}
	}
	if len(blk) > 0 {
		flush(recs[len(recs)-1].Key)
		nBlocks++
	}
	idx = append(le.AppendUint32(nil, uint32(nBlocks)), idx...)
	idx = le.AppendUint16(idx, uint16(len(recs[0].Key)))
	idx = append(idx, recs[0].Key...)
	fb := filter.Bytes()
	out := append(append(append([]byte(nil), data...), idx...), fb...)
	out = le.AppendUint64(out, uint64(len(data)))
	out = le.AppendUint64(out, uint64(len(idx)))
	out = le.AppendUint64(out, uint64(len(data)+len(idx)))
	out = le.AppendUint64(out, uint64(len(fb)))
	out = le.AppendUint64(out, uint64(len(recs)))
	return le.AppendUint64(out, footerMagicAligned)
}

// The aligned writer's file is byte for byte the reference encoding of the
// page-aligned layout, every block starts on a page, and every read path
// decodes it across the padding. A point read of an uncached block costs
// one page.
func TestAlignedWriterMatchesReferenceFormat(t *testing.T) {
	dev, cache := testDev()
	recs := bigRecords(1500)
	tbl := writeAligned(t, dev, cache, "big", recs)
	want := alignedReferenceFileBytes(recs, DefaultBlockSize)
	got := make([]byte, tbl.Size())
	if err := tbl.file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("aligned writer's %d bytes differ from the %d-byte reference encoding", len(got), len(want))
	}
	if !tbl.PageAligned() || tbl.NumBlocks() != 500 {
		t.Fatalf("aligned=%v with %d blocks, want 500 blocks of 3 records", tbl.PageAligned(), tbl.NumBlocks())
	}
	for i, h := range tbl.index {
		if h.off%simdev.PageSize != 0 {
			t.Fatalf("block %d starts at %d, not on a page", i, h.off)
		}
		if ok, _, err := tbl.VerifyBlock(i, nil); err != nil || !ok {
			t.Fatalf("block %d: crc ok=%v err=%v", i, ok, err)
		}
	}
	checkReadAll(t, tbl, recs)
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
	before := dev.Stats().ReadBytes
	if r, ok, err := tbl.Get(simdev.NewClock(), recs[777].Key); err != nil || !ok || !bytes.Equal(r.Value, recs[777].Value) {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if read := dev.Stats().ReadBytes - before; read != simdev.PageSize {
		t.Fatalf("an uncached point read cost %d device bytes, want one page", read)
	}
	reopened, err := Open(dev, cache, "big", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.PageAligned() || reopened.DataBytes() != tbl.DataBytes() {
		t.Fatalf("reopened: aligned=%v data %d bytes, want aligned and %d", reopened.PageAligned(), reopened.DataBytes(), tbl.DataBytes())
	}
	checkReadAll(t, reopened, recs)
}

// blockRecords returns tbl's records grouped by the block they sit in, and
// each block's bytes, as ReadBlocksInto hands them out.
func blockRecords(t testing.TB, tbl *Table) ([][]Record, [][]byte) {
	t.Helper()
	recs, raws := make([][]Record, tbl.NumBlocks()), make([][]byte, tbl.NumBlocks())
	err := tbl.ReadBlocksInto(nil, new(ReadScratch), func(i int, raw []byte, r Record) error {
		recs[i], raws[i] = append(recs[i], r), raw
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, raws
}

// A table built from copied blocks and re-encoded ones reads back as the
// records it was given; every copied block keeps its bytes and CRC, lands
// on a page, and is not charged to the device: the write costs exactly
// Size − Remapped bytes.
func TestAppendBlockCopiesAndCharges(t *testing.T) {
	dev, cache := testDev()
	src := writeAligned(t, dev, cache, "src", bigRecords(300))
	blocks, raws := blockRecords(t, src)

	w := NewAlignedWriter(dev, cache, "dst", 0, 0)
	var want []Record
	copied := map[int]int{} // dst block → src block
	for i, recs := range blocks {
		if i%3 == 1 {
			// A changed block: its records re-encoded, one with a new value.
			for j, r := range recs {
				if j == 1 {
					r.Value = []byte(fmt.Sprintf("replaced-%d", i))
					r.Version += 1000
				}
				if err := w.Add(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
			continue
		}
		raw := raws[i] // the bytes the read handed out, or none: read again
		if i%2 == 0 {
			raw = nil
		}
		if err := w.AppendBlock(src, i, raw, recs); err != nil {
			t.Fatal(err)
		}
		copied[len(w.blocks)-1] = i
		want = append(want, recs...)
	}
	clk := simdev.NewBGClock()
	before := dev.Stats().WriteBytes
	tbl, err := w.Finish(clk)
	if err != nil {
		t.Fatal(err)
	}
	if charged := dev.Stats().WriteBytes - before; charged != tbl.Size()-w.Remapped() {
		t.Fatalf("the device was charged %d bytes for a %d-byte table with %d remapped, want %d",
			charged, tbl.Size(), w.Remapped(), tbl.Size()-w.Remapped())
	}
	if w.Remapped() != int64(len(copied))*simdev.PageSize {
		t.Fatalf("remapped %d bytes for %d copied one-page blocks", w.Remapped(), len(copied))
	}
	checkReadAll(t, tbl, want)
	for i := 0; i < tbl.NumBlocks(); i++ {
		ok, got, err := tbl.VerifyBlock(i, nil)
		if err != nil || !ok {
			t.Fatalf("block %d: crc ok=%v err=%v", i, ok, err)
		}
		if tbl.index[i].off%simdev.PageSize != 0 {
			t.Fatalf("block %d starts at %d, not on a page", i, tbl.index[i].off)
		}
		if si, ok := copied[i]; ok {
			_, orig, _ := src.VerifyBlock(si, nil)
			if !bytes.Equal(got, orig) || tbl.index[i].crc != src.index[si].crc || !bytes.Equal(tbl.index[i].lastKey, src.index[si].lastKey) {
				t.Fatalf("block %d is not a verbatim copy of source block %d", i, si)
			}
		}
	}
	reopened, err := Open(dev, cache, "dst", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReadAll(t, reopened, want)
}

// Fits tells a block that fits in the room the open block has left, whose
// records then join that block, from one that needs pages of its own.
func TestFitsInOpenBlock(t *testing.T) {
	dev, cache := testDev()
	small := Record{Key: []byte("b"), Value: bytes.Repeat([]byte{'s'}, 100), Version: 1}
	big := Record{Key: []byte("c"), Value: bytes.Repeat([]byte{'B'}, 4000), Version: 2}
	src := writeAligned(t, dev, cache, "src", []Record{small, big})
	if src.NumBlocks() != 2 {
		t.Fatalf("source has %d blocks, want a one-record block before a one-page record", src.NumBlocks())
	}
	w := NewAlignedWriter(dev, cache, "dst", 0, 0)
	if w.Fits(src, 0) {
		t.Fatal("with no block open, nothing fits in one")
	}
	first := Record{Key: []byte("a"), Value: bytes.Repeat([]byte{'a'}, 500), Version: 3}
	if err := w.Add(first); err != nil {
		t.Fatal(err)
	}
	if !w.Fits(src, 0) || w.Fits(src, 1) {
		t.Fatalf("Fits = %v, %v; want the small block to fit and the page-sized one not", w.Fits(src, 0), w.Fits(src, 1))
	}
	if err := w.Add(small); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(src, 1, nil, []Record{big}); err != nil {
		t.Fatal(err)
	}
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumBlocks() != 2 || w.Remapped() != simdev.PageSize {
		t.Fatalf("%d blocks, %d bytes remapped; want 2 blocks, one page remapped", tbl.NumBlocks(), w.Remapped())
	}
	checkReadAll(t, tbl, []Record{first, small, big})
}

// AppendBlock refuses a packed source and a block that would break key
// order, and a refusal leaves the writer as it was.
func TestAppendBlockRejects(t *testing.T) {
	dev, cache := testDev()
	recs := bigRecords(30)
	packed := writeTable(t, dev, cache, "packed", recs)
	src := writeAligned(t, dev, cache, "src", recs)
	blocks, raws := blockRecords(t, src)
	w := NewAlignedWriter(dev, cache, "dst", 0, 0)
	if err := w.AppendBlock(packed, 0, nil, blocks[0]); err == nil {
		t.Fatal("AppendBlock from a packed table must fail")
	}
	if err := NewWriter(dev, cache, "x", 0).AppendBlock(src, 0, nil, blocks[0]); err == nil {
		t.Fatal("AppendBlock into a packed writer must fail")
	}
	if err := w.AppendBlock(src, 5, nil, blocks[5]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(src, 2, nil, blocks[2]); err == nil {
		t.Fatal("a block sorting before what was added must be refused")
	}
	if err := w.AppendBlock(src, 6, raws[6], blocks[6][:1]); err == nil {
		t.Fatal("records that do not end at the block's index key must be refused")
	}
	if err := w.AppendBlock(src, src.NumBlocks(), nil, blocks[0]); err == nil {
		t.Fatal("a block out of range must be refused")
	}
	if err := w.AppendBlock(src, 6, raws[6][1:], blocks[6]); err == nil {
		t.Fatal("bytes of the wrong length must be refused")
	}
	if err := w.AppendBlock(src, 6, raws[6], blocks[6]); err != nil {
		t.Fatal(err)
	}
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReadAll(t, tbl, recs[15:21])
}

// Open trusts nothing it reads: a footer, index or filter that lies about
// lengths, offsets or counts is an error, with no panic and no allocation
// beyond the file's size.
func TestOpenRejectsCorruptMetadata(t *testing.T) {
	le := binary.LittleEndian
	dev, cache := testDev()
	packed := fileBytes(t, writeTable(t, dev, cache, "packed", bigRecords(20)))
	aligned := fileBytes(t, writeAligned(t, dev, cache, "aligned", bigRecords(20)))
	// Offsets of the metadata fields within a file image.
	footer := func(b []byte) []byte { return b[len(b)-footerLen:] }
	idxOff := func(b []byte) int { return int(le.Uint64(footer(b))) }
	fOff := func(b []byte) int { return int(le.Uint64(footer(b)[16:])) }
	entry := func(b []byte, i int) []byte { // block handle i (all keys are 12 bytes)
		return b[idxOff(b)+4+i*(indexEntryLen+12):]
	}
	cases := []struct {
		name    string
		base    []byte
		corrupt func(b []byte)
	}{
		{"index length negative as int64", packed, func(b []byte) { le.PutUint64(footer(b)[8:], math.MaxUint64-7) }},
		{"filter length negative as int64", packed, func(b []byte) { le.PutUint64(footer(b)[24:], 1<<63) }},
		{"index offset past the file", packed, func(b []byte) { le.PutUint64(footer(b), uint64(len(b))) }},
		{"index offset plus length wraps", packed, func(b []byte) {
			le.PutUint64(footer(b)[8:], math.MaxUint64-uint64(idxOff(b))+2)
		}},
		{"record count beyond the file", packed, func(b []byte) { le.PutUint64(footer(b)[32:], 1<<62) }},
		{"block count of 4G entries", packed, func(b []byte) { le.PutUint32(b[idxOff(b):], math.MaxUint32) }},
		{"no blocks", packed, func(b []byte) { le.PutUint32(b[idxOff(b):], 0) }},
		{"block offset wraps", packed, func(b []byte) { le.PutUint64(entry(b, 1), math.MaxInt64-3) }},
		{"packed blocks with a gap", packed, func(b []byte) { le.PutUint64(entry(b, 1), le.Uint64(entry(b, 1))+1) }},
		{"aligned block off its page", aligned, func(b []byte) { le.PutUint64(entry(b, 1), le.Uint64(entry(b, 1))+1) }},
		{"block length past the data", aligned, func(b []byte) { le.PutUint32(entry(b, 1)[8:], math.MaxUint32) }},
		{"index keys out of order", packed, func(b []byte) { copy(entry(b, 1)[indexEntryLen:], "user00000000") }},
		{"filter bit count wraps", packed, func(b []byte) { le.PutUint64(b[fOff(b)+4:], math.MaxUint64) }},
		{"filter with 2^32-1 hashes", packed, func(b []byte) { le.PutUint32(b[fOff(b):], math.MaxUint32) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte(nil), c.base...)
			c.corrupt(b)
			if _, grew, err := openImage(dev, cache, b); err == nil {
				t.Fatal("Open accepted a corrupt table")
			} else if grew > allocBound(b) {
				t.Fatalf("Open allocated %d bytes for a %d-byte file before refusing it", grew, len(b))
			}
		})
	}
}

// fileBytes returns the image of tbl's file.
func fileBytes(t testing.TB, tbl *Table) []byte {
	b := make([]byte, tbl.Size())
	if err := tbl.file.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// allocBound is what Open may allocate for the file image b: its index,
// parsed handles and filter, a few times the file's size at most.
func allocBound(b []byte) uint64 { return uint64(4*len(b) + 64<<10) }

// openImage writes b to a fresh file on dev and opens it as a table,
// reporting the bytes Open allocated. Other goroutines (a fuzzing worker's
// own) may allocate during an open, so a count over allocBound is taken
// again, and the least of three stands.
func openImage(dev *simdev.Device, cache *simdev.PageCache, b []byte) (tbl *Table, grew uint64, err error) {
	name := dev.NextFileName("image")
	f, err := dev.CreateFile(name)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Append(b); err != nil {
		return nil, 0, err
	}
	grew = math.MaxUint64
	for i := 0; i < 3 && grew > allocBound(b); i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tbl, err = Open(dev, cache, name, nil)
		runtime.ReadMemStats(&m1)
		grew = min(grew, m1.TotalAlloc-m0.TotalAlloc)
	}
	return tbl, grew, err
}
