// Package sst implements the Sorted String Table files PrismDB stores on
// flash (§4.1): immutable files of sorted key-value records organised into
// blocks, with a per-file index and bloom filter. As in the paper, the index
// and filter are small enough to live on NVM; the engine accounts for their
// footprint there while this package keeps parsed copies in memory.
//
// SST files store disjoint key ranges within a partition's flash log, which
// makes point lookups a single block read.
//
// Bulk traffic — a compaction streaming whole tables through ReadBlocksInto
// and Writer — moves each record's bytes once. Writer encodes into
// extent-sized chunks that the file adopts as its storage; ReadBlocksInto
// hands out record VIEWS of that storage instead of copies. A view is owned
// by its table: it is valid while the caller holds a manifest reference on
// the table (and has not Reset the ReadScratch), because the extents of a
// table nobody references are recycled into the next table written on the
// device. Whoever keeps a record longer Clones it. A point read (Get,
// AppendValue) decodes its block where it lies and copies out only the hit;
// Iter copies blocks out and returns records that live in its buffers.
//
// A file is data blocks | index | filter | footer, in one of two layouts
// that the footer's magic tells apart:
//
//   - Packed (NewWriter): the blocks tile the data section back to back, and
//     a block closes once it reaches the block size, so a 4 KiB block of
//     1 KiB records straddles two device pages. The LSM baselines write
//     this, as RocksDB does by default (block_align=false).
//   - Page-aligned (NewAlignedWriter): every block starts on a device page
//     and holds what fits in its pages — a record that would overflow them
//     opens the next block — and the rest of its last page is zero padding
//     (RocksDB's block_align). PrismDB writes this: a flash GET reads one
//     page, and a block is a whole number of pages of its own.
//
// The second property is what lets a merge write only the blocks it
// changes. Writer.AppendBlock copies an input table's block verbatim: the
// same bytes at a page boundary, the same CRC and last key in the index. A
// verbatim block's pages hold exactly what the input's pages held, so a
// device can remap them into the new file instead of writing them — an
// extent reflink (Linux FICLONERANGE on XFS or Btrfs) or an FTL-level SHARE
// command (Oh et al., SIGMOD '16). Finish charges the device only for the
// pages that were written, and Remapped reports the rest.
package sst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/prismdb/prismdb/internal/bloom"
	"github.com/prismdb/prismdb/internal/simdev"
)

// blockCRCTable is the Castagnoli polynomial used for data-block checksums.
var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockSize is the target data-block size. Flash reads happen at
// block granularity, so this matches the device page size.
const DefaultBlockSize = 4096

const (
	footerMagic        = 0x5052534d53535431 // "PRSMSST1": packed blocks
	footerMagicAligned = 0x5052534d53535432 // "PRSMSST2": page-aligned blocks
	footerLen          = 48
	indexEntryLen      = 18 // a block handle on disk, before its key
)

// zeroPage is the padding an aligned writer closes a block's last page with.
var zeroPage [simdev.PageSize]byte

// roundPage rounds n up to a whole number of device pages.
func roundPage(n int64) int64 {
	return (n + simdev.PageSize - 1) / simdev.PageSize * simdev.PageSize
}

// Record is one stored entry. Tombstones persist deletes of keys whose
// older versions may still exist in earlier flash data.
type Record struct {
	Key       []byte
	Value     []byte
	Version   uint64
	Tombstone bool
}

// blockHandle locates a data block within the file. crc is the Castagnoli
// checksum of the block's bytes, stored in the index (which lives on NVM)
// so the scrubber can detect flash bit rot without trusting the flash
// contents to checksum themselves.
type blockHandle struct {
	off, len int64
	crc      uint32
	lastKey  []byte // largest key in the block
}

// Table is an open, immutable SST file. The parsed index and bloom filter
// are retained in memory (their byte size is reported by MetaBytes so the
// engine can charge NVM capacity for them, per §4.1).
type Table struct {
	file   *simdev.File
	dev    *simdev.Device
	cache  *simdev.PageCache
	index  []blockHandle
	filter *bloom.Filter

	// Optional second-level cache tier (e.g. NVM as an L2 block cache in
	// the rocksdb-l2c baseline): block reads missing the primary cache
	// check tierCache; hits there cost a tierDev read instead of a dev
	// read, and misses are inserted.
	tierCache *simdev.PageCache
	tierDev   *simdev.Device

	smallest []byte
	largest  []byte
	count    int   // number of records
	size     int64 // file bytes
	dataLen  int64 // bytes of the data section: the last block ends here
	aligned  bool  // page-aligned layout; packed blocks tile [0, dataLen)
	refs     int   // guarded by the owning Manifest
	// quarantined marks a table the scrubber evicted for bit rot: its file
	// is preserved on the device when the last reference drops, instead of
	// being deleted (guarded by the owning Manifest's mu).
	quarantined bool
}

// SetTierCache installs a second-level block cache backed by tierDev.
func (t *Table) SetTierCache(c *simdev.PageCache, dev *simdev.Device) {
	t.tierCache = c
	t.tierDev = dev
}

// Device returns the device holding the table's file.
func (t *Table) Device() *simdev.Device { return t.dev }

// Name returns the underlying file name.
func (t *Table) Name() string { return t.file.Name() }

// Smallest returns the table's smallest key.
func (t *Table) Smallest() []byte { return t.smallest }

// Largest returns the table's largest key.
func (t *Table) Largest() []byte { return t.largest }

// Count returns the number of records.
func (t *Table) Count() int { return t.count }

// Size returns the file size in bytes.
func (t *Table) Size() int64 { return t.size }

// DataBytes returns the bytes of the data section, padding included: what
// ReadAll reads from the device.
func (t *Table) DataBytes() int64 { return t.dataLen }

// PageAligned reports whether the table's blocks start on device pages, so
// that Writer.AppendBlock can carry them into an aligned table.
func (t *Table) PageAligned() bool { return t.aligned }

// MetaBytes returns the bytes of index + filter the engine must account for
// on NVM.
func (t *Table) MetaBytes() int64 {
	var n int64
	for _, h := range t.index {
		n += int64(len(h.lastKey)) + 16
	}
	if t.filter != nil {
		n += int64(t.filter.SizeBytes())
	}
	return n
}

// Overlaps reports whether the table's key range intersects [lo, hi].
// A nil hi means +∞; a nil lo means -∞.
func (t *Table) Overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.smallest, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.largest, lo) < 0 {
		return false
	}
	return true
}

// recordHeaderLen is the fixed prefix of a stored record:
// [version u64][keyLen u16][valLen u32][flags u8], followed by key and value.
const recordHeaderLen = 15

// decodeRecord parses one record from data, returning a view whose Key and
// Value alias data, plus the remaining bytes. Callers that retain the
// record beyond the block buffer's lifetime must Clone it.
func decodeRecord(data []byte) (Record, []byte, error) {
	if len(data) < recordHeaderLen {
		return Record{}, nil, errors.New("sst: truncated record header")
	}
	version := binary.LittleEndian.Uint64(data[0:])
	kl := int(binary.LittleEndian.Uint16(data[8:]))
	vl := int(binary.LittleEndian.Uint32(data[10:]))
	tomb := data[14] == 1
	data = data[recordHeaderLen:]
	if len(data) < kl+vl {
		return Record{}, nil, errors.New("sst: truncated record body")
	}
	rec := Record{
		Key:       data[:kl:kl],
		Value:     data[kl : kl+vl : kl+vl],
		Version:   version,
		Tombstone: tomb,
	}
	return rec, data[kl+vl:], nil
}

// Clone returns a record owning fresh copies of its key and value.
func (r Record) Clone() Record {
	r.Key = append([]byte(nil), r.Key...)
	r.Value = append([]byte(nil), r.Value...)
	return r
}

// Writer builds an SST file. Records must be added in strictly increasing
// key order. The file is written with one large sequential device write at
// Finish, matching the paper's flash layout goal of large sequential writes.
//
// A record's bytes move once: Add encodes straight into extent-sized chunks
// drawn from the device (Device.Chunk), block checksums are computed over
// the chunks in place, the index, filter and footer are encoded behind the
// data in the same chunk stream, and Finish hands the chunks to the file
// (File.AppendChunk), which adopts them as its storage. Add copies what it
// is given; the caller's record may be a view into anything.
type Writer struct {
	dev       *simdev.Device
	cache     *simdev.PageCache
	name      string
	blockSize int  // an aligned writer's is a whole number of pages
	aligned   bool // page-aligned layout (see the package doc)
	remapped  int64

	chunks [][]byte // filled chunks, in file order
	cur    []byte   // chunk being filled; len is its fill
	off    int64    // bytes encoded so far: the next byte's file offset

	// The open data block began at file offset blockStart. Its checksum is
	// folded in a chunk at a time: blockCRC covers the block's bytes in
	// chunks already filled, cur[crcFrom:] are its bytes not yet covered.
	blockStart int64
	blockCRC   uint32
	crcFrom    int

	// The block handles and the filter's keys accumulate in pooled scratch
	// (returned at Finish, which sizes the table's own index exactly): a
	// writer per output table would otherwise regrow them every table.
	*writerScratch
	filter   *bloom.Filter
	firstKey []byte
	lastKey  []byte
	count    int
}

// writerScratch is a Writer's per-table bookkeeping that does not outlive
// Finish. Keys are collected for the filter in one flat buffer (offsets into
// keyBuf) instead of one allocation per key.
type writerScratch struct {
	blocks  []blockHandle
	keyBuf  []byte
	keyOffs []int
}

var writerScratchPool = sync.Pool{New: func() interface{} { return new(writerScratch) }}

// NewWriter starts building a packed table in the named file on dev.
func NewWriter(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize int) *Writer {
	return NewWriterSize(dev, cache, name, blockSize, 0)
}

// NewWriterSize is NewWriter with a hint of the output's data size, which
// sizes bookkeeping scratch that is new (block handles, filter keys) once
// instead of growing it through doubling. The data itself needs no hint: it
// goes into fixed-size chunks.
func NewWriterSize(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize, sizeHint int) *Writer {
	return newWriter(dev, cache, name, blockSize, sizeHint, false)
}

// NewAlignedWriter is NewWriterSize for a page-aligned table: each block
// starts on a page and fills at most blockSize rounded up to whole pages.
func NewAlignedWriter(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize, sizeHint int) *Writer {
	return newWriter(dev, cache, name, blockSize, sizeHint, true)
}

func newWriter(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize, sizeHint int, aligned bool) *Writer {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if aligned {
		blockSize = int(roundPage(int64(blockSize)))
	}
	sc := writerScratchPool.Get().(*writerScratch)
	if sizeHint > 0 && cap(sc.keyBuf) == 0 {
		sc.blocks = make([]blockHandle, 0, sizeHint/blockSize+1)
		sc.keyBuf = make([]byte, 0, sizeHint/32)
	}
	return &Writer{dev: dev, cache: cache, name: name, blockSize: blockSize, aligned: aligned, writerScratch: sc}
}

// write appends b to the chunk stream, moving to a fresh chunk whenever the
// current one fills: records, blocks and the metadata sections all straddle
// chunk boundaries freely.
func (w *Writer) write(b []byte) {
	for len(b) > 0 {
		if len(w.cur) == cap(w.cur) {
			if w.cur != nil {
				w.blockCRC = crc32.Update(w.blockCRC, blockCRCTable, w.cur[w.crcFrom:])
				w.chunks = append(w.chunks, w.cur)
			}
			w.cur = w.dev.Chunk()[:0]
			w.crcFrom = 0
		}
		n := copy(w.cur[len(w.cur):cap(w.cur)], b)
		w.cur = w.cur[:len(w.cur)+n]
		w.off += int64(n)
		b = b[n:]
	}
}

// Add appends a record. Keys must arrive in strictly increasing order.
func (w *Writer) Add(r Record) error {
	if w.lastKey != nil && bytes.Compare(r.Key, w.lastKey) <= 0 {
		return fmt.Errorf("sst: keys out of order: %q after %q", r.Key, w.lastKey)
	}
	if w.aligned && w.off-w.blockStart+int64(recordHeaderLen+len(r.Key)+len(r.Value)) > int64(w.blockSize) {
		w.flushBlock() // the record would overflow the open block's pages
	}
	if w.firstKey == nil {
		w.firstKey = append([]byte(nil), r.Key...)
	}
	w.lastKey = append(w.lastKey[:0], r.Key...)
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.Version)
	binary.LittleEndian.PutUint16(hdr[8:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(r.Value)))
	if r.Tombstone {
		hdr[14] = 1
	}
	w.write(hdr[:])
	w.write(r.Key)
	w.write(r.Value)
	w.keyOffs = append(w.keyOffs, len(w.keyBuf))
	w.keyBuf = append(w.keyBuf, r.Key...)
	w.count++
	if w.off-w.blockStart >= int64(w.blockSize) {
		w.flushBlock()
	}
	return nil
}

// flushBlock closes the open data block: its handle records where it lies in
// the chunk stream and the checksum of its bytes, computed where they are.
func (w *Writer) flushBlock() {
	if w.off == w.blockStart {
		return
	}
	w.blocks = append(w.blocks, blockHandle{
		off:     w.blockStart,
		len:     w.off - w.blockStart,
		crc:     crc32.Update(w.blockCRC, blockCRCTable, w.cur[w.crcFrom:]),
		lastKey: append([]byte(nil), w.lastKey...),
	})
	w.startBlock()
}

// startBlock opens the next data block where the stream stands, after
// padding an aligned table to the next page. Chunks are whole pages, so the
// padding never crosses into a new chunk.
func (w *Writer) startBlock() {
	if w.aligned {
		w.write(zeroPage[:roundPage(w.off)-w.off])
	}
	w.blockStart = w.off
	w.blockCRC = 0
	w.crcFrom = len(w.cur)
}

// AppendBlock copies data block i of src, whose records must sort after
// every record added so far, verbatim: the open block is closed, and the
// copy keeps its bytes, on a page boundary, and the CRC and last key src's
// index recorded. Finish does not charge the device for the copy's pages
// (see Remapped). Both tables must be page-aligned. raw, when not nil, is the
// block's bytes as ReadBlocksInto handed them out; otherwise the block is
// read from src. recs are the block's records as ReadBlocksInto decoded
// them: their keys go into the new table's filter, and the block is not
// decoded again.
func (w *Writer) AppendBlock(src *Table, i int, raw []byte, recs []Record) error {
	if !w.aligned || !src.aligned {
		return fmt.Errorf("sst: AppendBlock from %s needs two page-aligned tables", src.Name())
	}
	if i < 0 || i >= len(src.index) {
		return fmt.Errorf("sst: block %d out of range (%s has %d)", i, src.Name(), len(src.index))
	}
	h := src.index[i]
	// Check the keys before anything is appended, so that a block out of
	// order leaves the writer as it was.
	prev := w.lastKey
	for _, r := range recs {
		if prev != nil && bytes.Compare(r.Key, prev) <= 0 {
			return fmt.Errorf("sst: block %d of %s out of order: %q after %q", i, src.Name(), r.Key, prev)
		}
		prev = r.Key
	}
	if len(recs) == 0 || !bytes.Equal(prev, h.lastKey) {
		return fmt.Errorf("sst: block %d of %s does not end at its index key %q", i, src.Name(), h.lastKey)
	}
	if raw == nil {
		bp := blockBufPool.Get().(*[]byte)
		defer blockBufPool.Put(bp)
		if int64(cap(*bp)) < h.len {
			*bp = make([]byte, h.len)
		}
		raw = (*bp)[:h.len]
		if err := src.file.ReadAt(raw, h.off); err != nil {
			return err
		}
	} else if int64(len(raw)) != h.len {
		return fmt.Errorf("sst: %d bytes given for block %d of %s, which has %d", len(raw), i, src.Name(), h.len)
	}
	for _, r := range recs {
		w.keyOffs = append(w.keyOffs, len(w.keyBuf))
		w.keyBuf = append(w.keyBuf, r.Key...)
	}
	if w.firstKey == nil {
		w.firstKey = append([]byte(nil), recs[0].Key...)
	}
	w.count += len(recs)
	w.flushBlock()
	off := w.off
	w.write(raw)
	w.blocks = append(w.blocks, blockHandle{off: off, len: h.len, crc: h.crc, lastKey: append([]byte(nil), h.lastKey...)})
	w.startBlock()
	w.remapped += w.off - off
	w.lastKey = append(w.lastKey[:0], prev...)
	return nil
}

// BlockOpen reports whether a data block is being filled, so that a record
// added now would join it rather than start one.
func (w *Writer) BlockOpen() bool { return w.off > w.blockStart }

// Fits reports whether data block i of src fits in the room the open block
// has left. Its records are then better added one by one: they join a page
// that is written anyway, where AppendBlock would give them pages of their
// own.
func (w *Writer) Fits(src *Table, i int) bool {
	return w.BlockOpen() && src.index[i].len <= int64(w.blockSize)-(w.off-w.blockStart)
}

// Count returns the records added so far.
func (w *Writer) Count() int { return w.count }

// EstimatedSize returns the bytes buffered so far, for size-based splits.
func (w *Writer) EstimatedSize() int64 { return w.off }

// Remapped returns the bytes of the table that AppendBlock copied verbatim:
// the copied blocks' whole pages, which Finish does not charge the device
// for.
func (w *Writer) Remapped() int64 { return w.remapped }

// Finish writes the file and returns an open Table. The write is charged as
// one sequential flash write of every byte but the Remapped ones against clk
// (nil skips time accounting, e.g. during test setup).
func (w *Writer) Finish(clk *simdev.Clock) (*Table, error) {
	if w.count == 0 {
		return nil, errors.New("sst: cannot finish empty table")
	}
	w.flushBlock()

	// Layout: data | index | filter | footer, one chunk stream. Index block
	// first: the handles, then the smallest key, for reopening.
	idxOff := w.off
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(w.blocks)))
	w.write(u32[:])
	for _, b := range w.blocks {
		var h [indexEntryLen]byte
		binary.LittleEndian.PutUint64(h[0:], uint64(b.off))
		binary.LittleEndian.PutUint32(h[8:], uint32(b.len))
		binary.LittleEndian.PutUint32(h[12:], b.crc)
		binary.LittleEndian.PutUint16(h[16:], uint16(len(b.lastKey)))
		w.write(h[:])
		w.write(b.lastKey)
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(w.firstKey)))
	w.write(u16[:])
	w.write(w.firstKey)

	// Bloom filter block.
	fOff := w.off
	w.filter = bloom.New(len(w.keyOffs), 0.01)
	for i, off := range w.keyOffs {
		end := len(w.keyBuf)
		if i+1 < len(w.keyOffs) {
			end = w.keyOffs[i+1]
		}
		w.filter.Add(w.keyBuf[off:end])
	}
	w.write(w.filter.Bytes())

	magic := uint64(footerMagic)
	if w.aligned {
		magic = footerMagicAligned
	}
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(idxOff))
	binary.LittleEndian.PutUint64(footer[8:], uint64(fOff-idxOff))
	binary.LittleEndian.PutUint64(footer[16:], uint64(fOff))
	binary.LittleEndian.PutUint64(footer[24:], uint64(w.off-fOff))
	binary.LittleEndian.PutUint64(footer[32:], uint64(w.count))
	binary.LittleEndian.PutUint64(footer[40:], magic)
	w.write(footer[:])
	total := w.off

	// The file takes the chunks as they are; the device write is still
	// charged as one large sequential request below.
	f, err := w.dev.CreateFile(w.name)
	if err != nil {
		return nil, err
	}
	for _, c := range append(w.chunks, w.cur) {
		if err := f.AppendChunk(c[:cap(c)], len(c)); err != nil {
			w.dev.RemoveFile(w.name)
			return nil, err
		}
	}
	w.chunks, w.cur = nil, nil
	if clk != nil {
		w.dev.AccessClk(clk, simdev.OpWrite, total-w.remapped)
	}
	last := w.blocks[len(w.blocks)-1]
	index := append([]blockHandle(nil), w.blocks...)
	clear(w.blocks) // the pool must not pin the table's keys
	w.blocks, w.keyBuf, w.keyOffs = w.blocks[:0], w.keyBuf[:0], w.keyOffs[:0]
	writerScratchPool.Put(w.writerScratch)
	w.writerScratch = nil
	return &Table{
		file:     f,
		dev:      w.dev,
		cache:    w.cache,
		index:    index,
		filter:   w.filter,
		smallest: w.firstKey,
		largest:  append([]byte(nil), w.lastKey...),
		count:    w.count,
		size:     total,
		dataLen:  last.off + last.len,
		aligned:  w.aligned,
	}, nil
}

// Open loads an existing SST file's metadata (footer, index, filter). Used
// during recovery; charges one sequential read of the metadata if clk is
// non-nil. Nothing read from the file is trusted: every offset, length and
// count is bounded by the file's size before it sizes a read or an
// allocation, so a corrupt file is an error, never a panic or a huge
// allocation.
func Open(dev *simdev.Device, cache *simdev.PageCache, name string, clk *simdev.Clock) (*Table, error) {
	f, err := dev.OpenFile(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size < footerLen {
		return nil, fmt.Errorf("sst: %s too small (%d bytes)", name, size)
	}
	var footer [footerLen]byte
	if err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	magic := le.Uint64(footer[40:])
	if magic != footerMagic && magic != footerMagicAligned {
		return nil, fmt.Errorf("sst: %s bad magic", name)
	}
	aligned := magic == footerMagicAligned
	// Unsigned comparisons against the bytes before the footer: no sum below
	// can wrap.
	body := uint64(size - footerLen)
	idxOffU, idxLenU := le.Uint64(footer[0:]), le.Uint64(footer[8:])
	fOffU, fLenU := le.Uint64(footer[16:]), le.Uint64(footer[24:])
	countU := le.Uint64(footer[32:])
	if idxOffU > body || idxLenU > body-idxOffU || fOffU > body || fLenU > body-fOffU || countU > body/recordHeaderLen {
		return nil, fmt.Errorf("sst: %s corrupt footer", name)
	}
	idxOff, idxLen, fOff, fLen := int64(idxOffU), int64(idxLenU), int64(fOffU), int64(fLenU)

	// The index is read into one buffer that the parsed handles' keys alias.
	idx := make([]byte, idxLen)
	if err := f.ReadAt(idx, idxOff); err != nil {
		return nil, err
	}
	if clk != nil {
		dev.AccessClk(clk, simdev.OpRead, idxLen+fLen)
	}
	if len(idx) < 4 {
		return nil, fmt.Errorf("sst: %s truncated index", name)
	}
	nBlocks := int(le.Uint32(idx))
	idx = idx[4:]
	switch {
	case nBlocks == 0:
		return nil, fmt.Errorf("sst: %s has no blocks", name)
	case nBlocks > len(idx)/indexEntryLen:
		return nil, fmt.Errorf("sst: %s index of %d bytes cannot hold %d blocks", name, len(idx), nBlocks)
	case uint64(nBlocks) > countU:
		return nil, fmt.Errorf("sst: %s has %d blocks for %d records", name, nBlocks, countU)
	}
	blocks := make([]blockHandle, 0, nBlocks)
	var dataLen int64 // the end of the previous block
	for i := 0; i < nBlocks; i++ {
		if len(idx) < indexEntryLen {
			return nil, fmt.Errorf("sst: %s truncated index entry", name)
		}
		off := int64(le.Uint64(idx[0:]))
		blen := int64(le.Uint32(idx[8:]))
		crc := le.Uint32(idx[12:])
		kl := int(le.Uint16(idx[16:]))
		idx = idx[indexEntryLen:]
		if len(idx) < kl {
			return nil, fmt.Errorf("sst: %s truncated index key", name)
		}
		key := idx[:kl:kl]
		idx = idx[kl:]
		switch {
		case off < dataLen || off > idxOff || blen <= 0 || blen > idxOff-off:
			return nil, fmt.Errorf("sst: %s block %d at [%d,+%d) is not in order inside the data section", name, i, off, blen)
		case !aligned && off != dataLen:
			return nil, fmt.Errorf("sst: %s block %d at [%d,+%d) does not tile the data section", name, i, off, blen)
		case aligned && off%simdev.PageSize != 0:
			return nil, fmt.Errorf("sst: %s block %d at [%d,+%d) does not start on a page", name, i, off, blen)
		case i > 0 && bytes.Compare(key, blocks[i-1].lastKey) <= 0:
			return nil, fmt.Errorf("sst: %s block %d's index key is out of order", name, i)
		}
		dataLen = off + blen
		blocks = append(blocks, blockHandle{off: off, len: blen, crc: crc, lastKey: key})
	}
	if len(idx) < 2 {
		return nil, fmt.Errorf("sst: %s missing smallest key", name)
	}
	skl := int(le.Uint16(idx))
	idx = idx[2:]
	if len(idx) < skl {
		return nil, fmt.Errorf("sst: %s truncated smallest key", name)
	}
	smallest := idx[:skl:skl]

	fb := make([]byte, fLen)
	if err := f.ReadAt(fb, fOff); err != nil {
		return nil, err
	}
	filter, err := bloom.FromBytes(fb)
	if err != nil {
		return nil, fmt.Errorf("sst: %s: %v", name, err)
	}
	return &Table{
		file:     f,
		dev:      dev,
		cache:    cache,
		index:    blocks,
		filter:   filter,
		smallest: smallest,
		largest:  blocks[len(blocks)-1].lastKey,
		count:    int(countU),
		size:     size,
		dataLen:  dataLen,
		aligned:  aligned,
	}, nil
}

// MayContain consults the bloom filter (held on NVM; no flash I/O).
func (t *Table) MayContain(key []byte) bool {
	return t.filter.MayContain(key)
}

// blockBufPool recycles point-read block buffers: a block that cannot be
// decoded where it lies (a backed file's, or one split across two extents)
// is read into one, and only the hit is copied out, so the buffer never
// escapes.
var blockBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, DefaultBlockSize)
		return &b
	},
}

// Get looks up key. A bloom-filter miss costs nothing; otherwise one data
// block is read from flash (through the page cache). Returns (rec, true) if
// found — including tombstones, which callers must check. The record owns
// its key and value, in one allocation.
func (t *Table) Get(clk *simdev.Clock, key []byte) (Record, bool, error) {
	if !t.filter.MayContain(key) {
		return Record{}, false, nil
	}
	bp := blockBufPool.Get().(*[]byte)
	defer blockBufPool.Put(bp)
	rec, found, err := t.find(clk, key, bp)
	if !found || err != nil {
		return Record{}, false, err
	}
	out := make([]byte, len(rec.Key)+len(rec.Value))
	copy(out, rec.Key)
	copy(out[len(rec.Key):], rec.Value)
	rec.Key = out[:len(rec.Key):len(rec.Key)]
	rec.Value = out[len(rec.Key):]
	return rec, true, nil
}

// AppendValue is the point read of a caller that has already probed the
// filter (MayContain said maybe) and wants only the value: Get without the
// second probe and without an allocation. It appends the value of key's
// record to dst and returns it, reporting whether the table holds key and
// whether the record is a tombstone; on a miss dst comes back as given. The
// device is charged as Get charges it.
func (t *Table) AppendValue(clk *simdev.Clock, key, dst []byte) (value []byte, found, tombstone bool, err error) {
	bp := blockBufPool.Get().(*[]byte)
	rec, found, err := t.find(clk, key, bp)
	if found {
		dst = append(dst, rec.Value...)
	}
	blockBufPool.Put(bp)
	return dst, found, found && rec.Tombstone, err
}

// find looks key up in the one block that may hold it, without the filter,
// and charges the block read to clk (page cache first). The block is decoded
// where it lies (File.Views): in the extents of an in-memory file, or in *bp
// when the file is backed or the block is split across two extents. The
// record is a view, valid while the caller holds a reference on t and has not
// reused *bp.
func (t *Table) find(clk *simdev.Clock, key []byte, bp *[]byte) (Record, bool, error) {
	// Binary search for the first block whose lastKey ≥ key.
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].lastKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.index) {
		return Record{}, false, nil
	}
	h := t.index[lo]
	var vs [2][]byte
	views, err := t.file.Views(vs[:0], h.off, h.len, bp)
	if err != nil {
		return Record{}, false, err
	}
	var blk []byte
	if len(views) == 1 {
		blk = views[0]
	} else {
		blk = (*bp)[:0]
		for _, v := range views {
			blk = append(blk, v...)
		}
		*bp = blk
	}
	t.chargeBlock(clk, h)
	for len(blk) > 0 {
		rec, rest, err := decodeRecord(blk)
		if err != nil {
			return Record{}, false, err
		}
		switch bytes.Compare(rec.Key, key) {
		case 0:
			return rec, true, nil
		case 1:
			return Record{}, false, nil
		}
		blk = rest
	}
	return Record{}, false, nil
}

// chargeBlock charges clk for reading block h: the pages the page cache
// misses, from the L2 tier when one is installed and the flash device
// otherwise. A nil clk charges nothing.
func (t *Table) chargeBlock(clk *simdev.Clock, h blockHandle) {
	if clk == nil {
		return
	}
	miss := int64(1 + (h.len-1)/simdev.PageSize)
	if t.cache != nil {
		miss = t.cache.TouchFile(t.file, h.off, h.len)
	}
	if miss <= 0 {
		return
	}
	if t.tierCache != nil && t.tierDev != nil {
		// Pages absent from DRAM may still sit in the L2 tier.
		tierMiss := t.tierCache.TouchFile(t.file, h.off, h.len)
		if tierHits := miss - tierMiss; tierHits > 0 {
			t.tierDev.AccessClk(clk, simdev.OpRead, tierHits*simdev.PageSize)
		}
		if tierMiss > 0 {
			t.dev.AccessClk(clk, simdev.OpRead, tierMiss*simdev.PageSize)
			// Filling the L2 cache costs a tier write.
			t.tierDev.AccessClk(clk, simdev.OpWrite, tierMiss*simdev.PageSize)
		}
	} else {
		t.dev.AccessClk(clk, simdev.OpRead, miss*simdev.PageSize)
	}
}

// NumBlocks returns how many data blocks the table holds, so a scrubber
// can verify them one at a time with pacing in between.
func (t *Table) NumBlocks() int { return len(t.index) }

// VerifyBlock re-reads data block i and checks it against the CRC recorded
// in the index. The read bypasses the page cache and charges no clock — a
// scrub pass must not perturb the simulation's timing or cache state.
// ok=false with a nil error means the block's bytes no longer match their
// checksum: flash bit rot. Tables are immutable, so VerifyBlock is safe to
// call concurrently with reads as long as the caller holds a manifest
// snapshot reference keeping t alive.
func (t *Table) VerifyBlock(i int, buf []byte) (ok bool, _ []byte, err error) {
	if i < 0 || i >= len(t.index) {
		return false, buf, fmt.Errorf("sst: block %d out of range (table has %d)", i, len(t.index))
	}
	h := t.index[i]
	if int64(cap(buf)) < h.len {
		buf = make([]byte, h.len)
	}
	buf = buf[:h.len]
	if err := t.file.ReadAt(buf, h.off); err != nil {
		return false, buf, err
	}
	return crc32.Checksum(buf, blockCRCTable) == h.crc, buf, nil
}

// ReadScratch is the reusable memory behind ReadBlocksInto: the view list,
// and for tables on backed files one data-section buffer per table read since
// the last Reset. The zero value is ready to use.
type ReadScratch struct {
	views [][]byte
	bufs  [][]byte
	used  int
}

// Reset lets the scratch's buffers be reused: every record view handed out
// through it since the previous Reset becomes invalid.
func (rs *ReadScratch) Reset() { rs.used = 0 }

// ReadAll streams every record to fn in key order, charging one sequential
// read of the data section. It is ReadBlocksInto with a scratch of its own,
// so the record views are owned by the GC on a backed file and by the file
// on an in-memory one.
func (t *Table) ReadAll(clk *simdev.Clock, fn func(Record) error) error {
	return t.ReadBlocksInto(clk, new(ReadScratch), func(_ int, _ []byte, rec Record) error { return fn(rec) })
}

// ReadBlocksInto streams every record to fn in key order, with the data
// block it came from, charging one sequential read of the data section.
// Compactions use it to merge tables: the block tells the blocks a merge
// changes from the ones it can copy (Writer.AppendBlock). The index says
// where each block lies; whatever lies between blocks (an aligned table's
// padding) is skipped, and a record that overruns its block is corruption.
//
// The records passed to fn are read-only VIEWS of the table's storage, not
// copies (File.Views): of the file's own extents when it is in memory, of
// one rs buffer filled by a single ReadAt when it is backed. A view stays
// valid while the caller both holds a manifest reference on t (an in-memory
// table's extents are recycled into new tables once its last reference
// drops) and has not Reset rs. Whatever outlives that — a key handed to an
// index that retains it, say — must be copied out (Clone). raw is the
// block's bytes, a view like the records, when they lie in one piece of what
// was read (always, on a backed file), and nil otherwise: AppendBlock takes
// them instead of reading the block again.
func (t *Table) ReadBlocksInto(clk *simdev.Clock, rs *ReadScratch, fn func(block int, raw []byte, rec Record) error) error {
	if clk != nil {
		t.dev.AccessClk(clk, simdev.OpRead, t.dataLen)
	}
	if rs.used == len(rs.bufs) {
		rs.bufs = append(rs.bufs, nil)
	}
	views, err := t.file.Views(rs.views[:0], 0, t.dataLen, &rs.bufs[rs.used])
	rs.views = views
	rs.used++
	if err != nil {
		return err
	}
	// The read position: data is the unread rest of views[vi], and pos the
	// file offset of its first byte.
	var data []byte
	vi, pos := -1, int64(0)
	// next makes data non-empty, moving on to the next view as needed.
	next := func(bi int) error {
		for len(data) == 0 && vi+1 < len(views) {
			vi++
			data = views[vi]
		}
		if len(data) == 0 {
			return fmt.Errorf("sst: %s block %d: data section truncated", t.Name(), bi)
		}
		return nil
	}
	for bi, h := range t.index {
		for pos < h.off { // padding
			if err := next(bi); err != nil {
				return err
			}
			n := min(h.off-pos, int64(len(data)))
			data, pos = data[n:], pos+n
		}
		if err := next(bi); err != nil {
			return err
		}
		var raw []byte
		if int64(len(data)) >= h.len {
			raw = data[:h.len:h.len]
		}
		end := h.off + h.len
		for pos < end {
			if err := next(bi); err != nil {
				return err
			}
			rec, rest, err := decodeRecord(data)
			if err != nil {
				// The record does not fit in what is left of this view: it
				// straddles the boundary (a handful per packed table) or the
				// data is corrupt. It is the one case that is copied, into
				// memory of its own.
				rec, vi, rest, err = stitchRecord(views, vi, data, end-pos)
				if err != nil {
					return fmt.Errorf("sst: %s block %d: %w", t.Name(), bi, err)
				}
			}
			n := int64(recordHeaderLen + len(rec.Key) + len(rec.Value))
			if n > end-pos {
				return fmt.Errorf("sst: %s block %d: a record overruns the block", t.Name(), bi)
			}
			data, pos = rest, pos+n
			if err := fn(bi, raw, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordLen returns the encoded length of the record at the head of data,
// or 0 when data holds less than the record's header.
func recordLen(data []byte) int {
	if len(data) < recordHeaderLen {
		return 0
	}
	return recordHeaderLen + int(binary.LittleEndian.Uint16(data[8:])) + int(binary.LittleEndian.Uint32(data[10:]))
}

// stitchRecord decodes the record that begins at head, the unread tail of
// views[vi], and continues into the following views. It returns the record
// (a view of a fresh buffer) and the read position just past it. A record
// longer than limit, the bytes left in its block, is corrupt: it is
// rejected before its buffer is allocated.
func stitchRecord(views [][]byte, vi int, head []byte, limit int64) (Record, int, []byte, error) {
	// gather copies into dst from the read position, advancing it.
	gather := func(dst []byte) bool {
		for len(dst) > 0 {
			for len(head) == 0 {
				if vi++; vi >= len(views) {
					return false
				}
				head = views[vi]
			}
			n := copy(dst, head)
			dst, head = dst[n:], head[n:]
		}
		return true
	}
	startVi, startHead := vi, head
	var hdr [recordHeaderLen]byte
	if !gather(hdr[:]) {
		return Record{}, vi, nil, errors.New("sst: truncated record header")
	}
	if int64(recordLen(hdr[:])) > limit {
		return Record{}, vi, nil, errors.New("sst: record overruns its block")
	}
	buf := make([]byte, recordLen(hdr[:]))
	vi, head = startVi, startHead
	if !gather(buf) {
		return Record{}, vi, nil, errors.New("sst: truncated record body")
	}
	rec, _, err := decodeRecord(buf)
	return rec, vi, head, err
}

// Iter returns an iterator positioned at the first key ≥ start (nil = min).
// Block reads are charged lazily as the iterator crosses block boundaries;
// with prefetch enabled, sequential block reads are batched (modeling
// RocksDB's readahead, which PrismDB lacks — §7.2).
//
// Record views returned by an Iter built this way stay valid for the
// iterator's lifetime (each block batch gets a fresh buffer); callers that
// copy records out before advancing can use Reset instead to recycle the
// buffers.
func (t *Table) Iter(clk *simdev.Clock, start []byte, prefetch bool) *Iter {
	it := &Iter{}
	it.init(t, clk, start, prefetch, false)
	return it
}

// Reset repositions it onto table t at the first key ≥ start, reusing the
// iterator's block and record buffers (zero steady-state allocation for
// cursors that chain across a partition's disjoint tables). In exchange,
// advancing past a block batch — or Resetting again — invalidates every
// previously returned Record view; callers must copy out what they keep
// before calling Next. A zero-value Iter may be Reset directly.
func (it *Iter) Reset(t *Table, clk *simdev.Clock, start []byte, prefetch bool) {
	it.init(t, clk, start, prefetch, true)
}

func (it *Iter) init(t *Table, clk *simdev.Clock, start []byte, prefetch, reuse bool) {
	it.t, it.clk, it.prefetch, it.reuse = t, clk, prefetch, reuse
	it.blockIdx = -1
	it.err = nil
	it.seek(start)
}

// Iter iterates a table in key order.
type Iter struct {
	t        *Table
	clk      *simdev.Clock
	prefetch bool
	reuse    bool // recycle buf/recs across block loads (see Reset)

	blockIdx int
	buf      []byte // current block batch (reuse mode only)
	recs     []Record
	pos      int
	err      error
}

func (it *Iter) seek(start []byte) {
	idx := 0
	if start != nil {
		lo, hi := 0, len(it.t.index)
		for lo < hi {
			mid := (lo + hi) / 2
			if bytes.Compare(it.t.index[mid].lastKey, start) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		idx = lo
	}
	it.loadBlock(idx)
	if start != nil {
		for it.pos < len(it.recs) && bytes.Compare(it.recs[it.pos].Key, start) < 0 {
			it.pos++
		}
		if it.pos == len(it.recs) {
			it.loadBlock(it.blockIdx + 1)
		}
	}
}

func (it *Iter) loadBlock(idx int) {
	it.recs = it.recs[:0]
	it.pos = 0
	it.blockIdx = idx
	if idx >= len(it.t.index) {
		return
	}
	n := 1
	if it.prefetch {
		// Model readahead: fetch up to 8 blocks in one device request.
		if n = len(it.t.index) - idx; n > 8 {
			n = 8
		}
	}
	var total int64
	for i := 0; i < n; i++ {
		total += it.t.index[idx+i].len
	}
	var buf []byte
	if it.reuse {
		if int64(cap(it.buf)) < total {
			it.buf = make([]byte, total)
		}
		buf = it.buf[:total]
	} else {
		buf = make([]byte, total)
	}
	var off int64
	for i := 0; i < n; i++ {
		h := it.t.index[idx+i]
		if err := it.t.file.ReadAt(buf[off:off+h.len], h.off); err != nil {
			it.err = err
			return
		}
		if it.t.cache != nil {
			it.t.cache.TouchFile(it.t.file, h.off, h.len)
		}
		off += h.len
	}
	for len(buf) > 0 {
		rec, rest, err := decodeRecord(buf)
		if err != nil {
			it.err = err
			return
		}
		it.recs = append(it.recs, rec)
		buf = rest
	}
	it.blockIdx = idx + n - 1
	if it.clk != nil && total > 0 {
		// One device request spans the blocks and whatever lies between them
		// (an aligned table's padding).
		last := it.t.index[it.blockIdx]
		it.t.dev.AccessClk(it.clk, simdev.OpRead, last.off+last.len-it.t.index[idx].off)
	}
}

// Valid reports whether the iterator is positioned at a record.
func (it *Iter) Valid() bool { return it.err == nil && it.pos < len(it.recs) }

// Record returns the current record; only valid when Valid().
func (it *Iter) Record() Record { return it.recs[it.pos] }

// Next advances the iterator.
func (it *Iter) Next() {
	it.pos++
	if it.pos >= len(it.recs) && it.err == nil {
		it.loadBlock(it.blockIdx + 1)
	}
}

// Err returns any I/O error encountered.
func (it *Iter) Err() error { return it.err }
