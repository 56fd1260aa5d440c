// Package slab implements PrismDB's NVM data layout (§4.1): a set of slab
// files, each dedicated to a size class, holding fixed-size slots. NVM
// supports fast random writes and in-place updates, so new data and updates
// go directly into slots; objects keep a small metadata header carrying a
// version (logical timestamp) and size information used for crash recovery.
//
// Free slots are kept sorted by disk location (a min-heap), implementing the
// paper's tiny-object optimisation: consecutive inserts land on the same OS
// page (§7.3).
package slab

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/prismdb/prismdb/internal/simdev"
)

// DefaultClasses is the default slot-size ladder. A record (header + key +
// value) is placed in the smallest class that fits. The paper's examples use
// 100 B…1 KB classes for ≤4 KB objects; the ladder below keeps internal
// fragmentation under ~25% across that range (a 1 KB object with key and
// header lands in the 1152 B class).
var DefaultClasses = []int{128, 192, 256, 384, 512, 768, 1024, 1152, 1536, 2048, 3072, 4096}

// headerSize is the per-slot metadata header:
//
//	version   uint64  logical timestamp (0 ⇒ slot free)
//	keyLen    uint16
//	valLen    uint16
//	flags     uint8   (bit 0: tombstone)
//	crc24     [3]byte integrity checksum (see slotCRC)
const headerSize = 16

// slotCRCTable is the Castagnoli polynomial used for slot checksums.
var slotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// slotCRC computes the 24-bit integrity checksum stored in the header's
// last three bytes: a Castagnoli CRC over the header's first 13 bytes
// (version, lengths, flags) and the key+value payload, truncated to 24
// bits. 24 bits keep the slot layout — and so every capacity calculation —
// unchanged while still catching bit rot with ~1/16M odds of a silent miss,
// plenty for a scrubber whose job is detection, not correction.
func slotCRC(buf []byte, payload int) uint32 {
	crc := crc32.Update(0, slotCRCTable, buf[:13])
	crc = crc32.Update(crc, slotCRCTable, buf[headerSize:headerSize+payload])
	return crc & 0xffffff
}

// flagTombstone marks a slot holding a delete tombstone for a key that may
// still have an older version on flash.
const flagTombstone = 1

// ErrSlotFree is returned when reading a slot that holds no live object.
var ErrSlotFree = errors.New("slab: slot is free")

// Loc identifies an object's location: slab class index plus slot number,
// packed so the engine can store it in a B-tree uint64 value (the paper uses
// a 1-byte slab ID plus a 4-byte page offset).
type Loc uint64

// NewLoc packs a class index and slot number.
func NewLoc(class int, slot uint32) Loc {
	return Loc(uint64(class)<<32 | uint64(slot))
}

// Class returns the slab class index.
func (l Loc) Class() int { return int(uint64(l) >> 32) }

// Slot returns the slot number within the class's slab file.
func (l Loc) Slot() uint32 { return uint32(uint64(l)) }

// Record is a stored object.
type Record struct {
	Key       []byte
	Value     []byte
	Version   uint64
	Tombstone bool
}

// slotHeap is a min-heap of slot indices, so the lowest-address free slot is
// always reused first (keeps consecutive writes on the same OS page).
type slotHeap []uint32

func (h slotHeap) Len() int            { return len(h) }
func (h slotHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(uint32)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// slabFile is one size class's storage.
type slabFile struct {
	slotSize int
	file     *simdev.File
	nSlots   uint32   // slots allocated (file size / slotSize)
	free     slotHeap // free slot indices
	live     uint32   // slots in use
}

// growBytes is the extent size by which a slab file grows when it runs out
// of free slots (rounded up to at least 64 slots), keeping allocation
// granularity small relative to scaled-down NVM budgets.
const growBytes = 64 << 10

// Manager owns the slab files of one partition on one NVM device.
// It is not internally synchronized (partition-lock discipline).
type Manager struct {
	dev     *simdev.Device
	cache   *simdev.PageCache
	classes []int
	slabs   []*slabFile
	name    string // file-name prefix, e.g. "p3-slab"

	liveBytes int64 // sum of slot sizes currently in use

	// Epoch pinning (scan snapshots): while pins > 0, freed slots keep
	// their contents readable and are not reused — they queue on deferred
	// and are physically zeroed and recycled when the last pin releases.
	// The device write a free implies is still charged at free time (the
	// deferral stands in for the epoch-based reclamation a real engine
	// would use), so time accounting is identical with and without pins.
	pins     int
	deferred []Loc
	// handedOut counts slots released by UnpinEpochDeferred whose off-lock
	// zeroing has not yet been confirmed by RecycleSlots. Together with
	// len(deferred) it tells DeferredDirty whether the slab files are a
	// complete image of the logical state.
	handedOut int

	// scratch is the reused slot write buffer. The Manager is single-owner
	// (partition-lock discipline), so one buffer serves every write; reads
	// take their buffer from the caller (ReadSlotInto).
	scratch []byte
}

// PinEpoch opens a reclamation epoch: until the matching UnpinEpochDeferred,
// slots freed by Delete stay readable at their old locations and are
// not handed back to Put. Iterators pin an epoch so the locations in the
// index view they took under the partition lock stay dereferenceable for the
// whole scan, across concurrent deletes and compaction demotions; the
// compactor and the scrubber pin one around their off-lock reads. Pins nest.
func (m *Manager) PinEpoch() { m.pins++ }

// UnpinEpochDeferred closes an epoch and hands the finishing work to the
// caller: when the last pin releases, the deferred slots are returned
// un-zeroed and un-recycled (and the deferred list is reset). The caller
// zeroes them with ZeroSlot (crash safety: a recovery scan must not resurrect
// them) — which is safe to call WITHOUT the owner's lock, and whose failure
// the caller can handle — and then returns them to the free heaps with
// RecycleSlots under the lock. That keeps the per-slot zeroing writes out of
// the partition's critical section. While pins remain (or nothing was
// deferred) it returns nil.
func (m *Manager) UnpinEpochDeferred() []Loc {
	m.pins--
	if m.pins > 0 {
		return nil
	}
	if m.pins < 0 {
		panic("slab: UnpinEpochDeferred without matching PinEpoch")
	}
	locs := m.deferred
	m.deferred = nil
	m.handedOut += len(locs)
	return locs
}

// ZeroSlot zeroes a freed slot's header (crash safety: a recovery scan
// must not resurrect it). It touches only the slab file, which is
// internally synchronized, so — unlike every other Manager method — it may
// run concurrently with foreground operations, PROVIDED the slot is
// logically free and unreachable (e.g. it came from UnpinEpochDeferred).
// The device-time charge for this write was already taken at free time.
func (m *Manager) ZeroSlot(loc Loc) error {
	// No nSlots bounds check: that field is mutated by (owner-locked)
	// grows this method must not race with; the loc's validity is the
	// caller's contract, and the file itself still bounds-checks.
	ci := loc.Class()
	if ci < 0 || ci >= len(m.slabs) {
		return fmt.Errorf("slab: bad class %d in loc", ci)
	}
	sf := m.slabs[ci]
	var hdr [headerSize]byte
	off := int64(loc.Slot()) * int64(sf.slotSize)
	return sf.file.WriteAt(hdr[:], off)
}

// RecycleSlots returns zeroed slots to their free heaps (owner-locked,
// like the rest of the Manager).
func (m *Manager) RecycleSlots(locs []Loc) {
	m.handedOut -= len(locs)
	for _, loc := range locs {
		heap.Push(&m.slabs[loc.Class()].free, loc.Slot())
	}
}

// DeferredDirty reports whether any freed slot's zeroing write has not yet
// been issued to the backing file: slots parked on the deferred list by an
// open reclamation epoch, plus slots handed out by UnpinEpochDeferred whose
// off-lock zeroing RecycleSlots has not yet confirmed. While true, the slab
// files are NOT a complete image of the logical state — an fsync of them
// does not make the WAL records covering those frees redundant, so a
// checkpoint must be refused (see core's syncSlabs).
func (m *Manager) DeferredDirty() bool {
	return len(m.deferred) > 0 || m.handedOut > 0
}

// ReadSlotInto reads the record at loc into buf (grown as needed),
// returning views into it. Reads hit the OS page cache when resident;
// otherwise they cost one NVM page read per missed page. It touches only
// internally-synchronized state (the slab file, the page cache, the device),
// so it may run concurrently with foreground operations on the same Manager:
// GETs, iterators and the background compactor all read slots through it off
// the partition lock. The caller must either guarantee loc stays valid for
// the duration — an open reclamation epoch covering the slot (freed slots
// stay readable, updates go copy-on-write) is exactly that guarantee — or
// validate the record it gets back, as a GET does.
func (m *Manager) ReadSlotInto(clk *simdev.Clock, loc Loc, buf []byte) (Record, []byte, error) {
	// See ZeroSlot for why there is no nSlots bounds check here.
	ci := loc.Class()
	if ci < 0 || ci >= len(m.slabs) {
		return Record{}, buf, fmt.Errorf("slab: bad class %d in loc", ci)
	}
	sf := m.slabs[ci]
	if cap(buf) < sf.slotSize {
		buf = make([]byte, sf.slotSize)
	}
	buf = buf[:sf.slotSize]
	off := int64(loc.Slot()) * int64(sf.slotSize)
	if err := sf.file.ReadAt(buf, off); err != nil {
		return Record{}, buf, err
	}
	m.chargeRead(clk, sf, off, int64(sf.slotSize))
	rec, err := decodeView(buf)
	return rec, buf, err
}

// VerifySlot reads the slot at loc into buf (grown as needed) and checks
// its stored CRC against a recomputation — the scrubber's read. Like
// ReadSlotInto it touches only internally-synchronized state and so may run
// off the partition lock, provided an open reclamation epoch keeps loc
// valid; unlike it, no clock is charged and the page cache is not touched,
// so a scrub pass never perturbs the simulation's timing or cache state. A
// free slot verifies trivially. ok=false with a nil error means the slot is
// live but its contents no longer match the checksum — bit rot.
func (m *Manager) VerifySlot(loc Loc, buf []byte) (ok bool, _ []byte, err error) {
	ci := loc.Class()
	if ci < 0 || ci >= len(m.slabs) {
		return false, buf, fmt.Errorf("slab: bad class %d in loc", ci)
	}
	sf := m.slabs[ci]
	if cap(buf) < sf.slotSize {
		buf = make([]byte, sf.slotSize)
	}
	buf = buf[:sf.slotSize]
	off := int64(loc.Slot()) * int64(sf.slotSize)
	if err := sf.file.ReadAt(buf, off); err != nil {
		return false, buf, err
	}
	if binary.LittleEndian.Uint64(buf[0:]) == 0 {
		return true, buf, nil // free slot: nothing to protect
	}
	kl := int(binary.LittleEndian.Uint16(buf[8:]))
	vl := int(binary.LittleEndian.Uint16(buf[10:]))
	if headerSize+kl+vl > len(buf) {
		return false, buf, nil // lengths themselves are rotted
	}
	stored := uint32(buf[13]) | uint32(buf[14])<<8 | uint32(buf[15])<<16
	return slotCRC(buf, kl+vl) == stored, buf, nil
}

// Pinned reports whether a reclamation epoch is open. The engine's write
// path consults it to turn in-place updates into copy-on-write ones, so a
// pinned reader never observes a value written after its snapshot.
func (m *Manager) Pinned() bool { return m.pins > 0 }

// buf returns the scratch buffer sized to n bytes.
func (m *Manager) buf(n int) []byte {
	if cap(m.scratch) < n {
		m.scratch = make([]byte, n)
	}
	return m.scratch[:n]
}

// NewManager creates (or reopens) the slab files for a partition. The cache
// models the OS page cache; it may be shared across partitions. Existing
// files with matching names are reopened, which is how recovery works.
func NewManager(dev *simdev.Device, cache *simdev.PageCache, namePrefix string, classes []int) (*Manager, error) {
	if len(classes) == 0 {
		classes = DefaultClasses
	}
	m := &Manager{dev: dev, cache: cache, classes: classes, name: namePrefix}
	for i, sz := range classes {
		if sz < headerSize+1 {
			return nil, fmt.Errorf("slab: class %d size %d too small", i, sz)
		}
		if i > 0 && sz <= classes[i-1] {
			return nil, fmt.Errorf("slab: classes must be strictly increasing")
		}
		fname := fmt.Sprintf("%s-c%d", namePrefix, sz)
		f, err := dev.OpenFile(fname)
		if err != nil {
			f, err = dev.CreateFile(fname)
			if err != nil {
				return nil, err
			}
		}
		sf := &slabFile{slotSize: sz, file: f, nSlots: uint32(f.Size() / int64(sz))}
		m.slabs = append(m.slabs, sf)
	}
	return m, nil
}

// classFor returns the index of the smallest class fitting a record of
// keyLen+valLen payload bytes, or -1 if the object is too large.
func (m *Manager) classFor(payload int) int {
	need := payload + headerSize
	for i, sz := range m.classes {
		if sz >= need {
			return i
		}
	}
	return -1
}

// ClassOf exposes class selection for callers that need to know whether an
// in-place update is possible (same class ⇒ same slot).
func (m *Manager) ClassOf(keyLen, valLen int) int { return m.classFor(keyLen + valLen) }

// LiveBytes returns the bytes held by in-use slots; the engine's NVM
// watermark logic is driven by this.
func (m *Manager) LiveBytes() int64 { return m.liveBytes }

// AllocatedBytes returns the total size of all slab files.
func (m *Manager) AllocatedBytes() int64 {
	var n int64
	for _, s := range m.slabs {
		n += s.file.Size()
	}
	return n
}

// Sync flushes every slab file's backing store to stable storage (a no-op
// on in-memory devices). Unlike the rest of the Manager it is safe to call
// concurrently with slot writes: it only touches the files, which never
// change identity after NewManager, and a checkpoint that races a write is
// covered either by this fsync or by the write's WAL record.
func (m *Manager) Sync() error {
	for _, s := range m.slabs {
		if err := s.file.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// LiveObjects returns the number of in-use slots.
func (m *Manager) LiveObjects() int {
	var n int
	for _, s := range m.slabs {
		n += int(s.live)
	}
	return n
}

// encode serializes a record into a slot-size buffer.
func encode(buf []byte, rec Record) {
	binary.LittleEndian.PutUint64(buf[0:], rec.Version)
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(rec.Key)))
	binary.LittleEndian.PutUint16(buf[10:], uint16(len(rec.Value)))
	var flags byte
	if rec.Tombstone {
		flags |= flagTombstone
	}
	buf[12] = flags
	copy(buf[headerSize:], rec.Key)
	copy(buf[headerSize+len(rec.Key):], rec.Value)
	crc := slotCRC(buf, len(rec.Key)+len(rec.Value))
	buf[13], buf[14], buf[15] = byte(crc), byte(crc>>8), byte(crc>>16)
}

// decodeView parses a slot buffer into a record whose Key and Value alias
// buf. A zero version means the slot is free.
func decodeView(buf []byte) (Record, error) {
	version := binary.LittleEndian.Uint64(buf[0:])
	if version == 0 {
		return Record{}, ErrSlotFree
	}
	kl := int(binary.LittleEndian.Uint16(buf[8:]))
	vl := int(binary.LittleEndian.Uint16(buf[10:]))
	if headerSize+kl+vl > len(buf) {
		return Record{}, fmt.Errorf("slab: corrupt slot header kl=%d vl=%d slot=%d", kl, vl, len(buf))
	}
	rec := Record{
		Key:       buf[headerSize : headerSize+kl],
		Value:     buf[headerSize+kl : headerSize+kl+vl],
		Version:   version,
		Tombstone: buf[12]&flagTombstone != 0,
	}
	return rec, nil
}

// decode parses a slot buffer into an owning record (fresh copies).
func decode(buf []byte) (Record, error) {
	rec, err := decodeView(buf)
	if err != nil {
		return rec, err
	}
	rec.Key = append([]byte(nil), rec.Key...)
	rec.Value = append([]byte(nil), rec.Value...)
	return rec, nil
}

// Put writes a record into a free slot of the right class and returns its
// location. Writes are synchronous (one page write to the NVM device), as
// PrismDB commits client writes to their slab locations for crash recovery
// instead of keeping a WAL (§6).
func (m *Manager) Put(clk *simdev.Clock, rec Record) (Loc, error) {
	if rec.Version == 0 {
		return 0, errors.New("slab: version must be non-zero")
	}
	ci := m.classFor(len(rec.Key) + len(rec.Value))
	if ci < 0 {
		return 0, fmt.Errorf("slab: object of %d bytes exceeds largest class %d",
			len(rec.Key)+len(rec.Value), m.classes[len(m.classes)-1])
	}
	sf := m.slabs[ci]
	var slot uint32
	if len(sf.free) > 0 {
		slot = heap.Pop(&sf.free).(uint32)
	} else if err := m.grow(sf); err != nil {
		return 0, err
	} else {
		slot = heap.Pop(&sf.free).(uint32)
	}
	if err := m.writeSlot(clk, sf, slot, rec); err != nil {
		heap.Push(&sf.free, slot)
		return 0, err
	}
	sf.live++
	m.liveBytes += int64(sf.slotSize)
	return NewLoc(ci, slot), nil
}

// Update rewrites the slot at loc in place. The record must fit the slot's
// class; callers use ClassOf to decide between Update and Delete+Put.
func (m *Manager) Update(clk *simdev.Clock, loc Loc, rec Record) error {
	if rec.Version == 0 {
		return errors.New("slab: version must be non-zero")
	}
	sf, err := m.slab(loc)
	if err != nil {
		return err
	}
	if headerSize+len(rec.Key)+len(rec.Value) > sf.slotSize {
		return fmt.Errorf("slab: record does not fit class %d for in-place update", sf.slotSize)
	}
	return m.writeSlot(clk, sf, loc.Slot(), rec)
}

func (m *Manager) writeSlot(clk *simdev.Clock, sf *slabFile, slot uint32, rec Record) error {
	// The scratch tail past the record is stale bytes from earlier ops;
	// decode never reads past keyLen+valLen, so they are harmless.
	buf := m.buf(sf.slotSize)
	encode(buf, rec)
	off := int64(slot) * int64(sf.slotSize)
	if err := sf.file.WriteAt(buf, off); err != nil {
		return err
	}
	// Synchronous page write: Optane writes 4 KB pages atomically.
	if clk != nil {
		m.dev.AccessClk(clk, simdev.OpWrite, int64(sf.slotSize))
	}
	if m.cache != nil {
		m.cache.TouchFile(sf.file, off, int64(sf.slotSize))
	}
	return nil
}

// Get reads the record at loc into a buffer of its own, so the returned
// record owns its key and value: ReadSlotInto for callers with no buffer to
// reuse.
func (m *Manager) Get(clk *simdev.Clock, loc Loc) (Record, error) {
	rec, _, err := m.ReadSlotInto(clk, loc, nil)
	return rec, err
}

func (m *Manager) chargeRead(clk *simdev.Clock, sf *slabFile, off, n int64) {
	if clk == nil {
		return
	}
	miss := int64(1 + (n-1)/simdev.PageSize)
	if m.cache != nil {
		miss = m.cache.TouchFile(sf.file, off, n)
	}
	for i := int64(0); i < miss; i++ {
		m.dev.AccessClk(clk, simdev.OpRead, simdev.PageSize)
	}
}

// Delete frees the slot at loc. The header is zeroed with a page write so a
// crash cannot resurrect the object. The write is charged to clk (none when
// nil), whatever clock the caller passes: a foreground op's own, or, for a
// compaction commit that frees many slots as one concurrent batch, a fork of
// the commit's clock at the batch's issue time (simdev.Clock.Fork). Inside a
// pinned epoch the zeroing and reuse are deferred (see PinEpoch) but the
// write is still charged here, so pinned readers keep a consistent view at
// no accounting difference. A loc outside the slab files is an error that
// frees and charges nothing; under a pinned epoch it is the only error.
func (m *Manager) Delete(clk *simdev.Clock, loc Loc) error {
	sf, err := m.slab(loc)
	if err != nil {
		return err
	}
	if clk != nil {
		m.dev.AccessClk(clk, simdev.OpWrite, simdev.PageSize)
	}
	if m.pins > 0 {
		m.deferred = append(m.deferred, loc)
	} else {
		off := int64(loc.Slot()) * int64(sf.slotSize)
		var hdr [headerSize]byte
		if err := sf.file.WriteAt(hdr[:], off); err != nil {
			return err
		}
		heap.Push(&sf.free, loc.Slot())
	}
	sf.live--
	m.liveBytes -= int64(sf.slotSize)
	return nil
}

// grow extends a slab file by one extent and adds the new slots to the
// free heap.
func (m *Manager) grow(sf *slabFile) error {
	slots := uint32(growBytes / sf.slotSize)
	if slots < 64 {
		slots = 64
	}
	newSize := (int64(sf.nSlots) + int64(slots)) * int64(sf.slotSize)
	if err := sf.file.Truncate(newSize); err != nil {
		return err
	}
	for i := uint32(0); i < slots; i++ {
		heap.Push(&sf.free, sf.nSlots+i)
	}
	sf.nSlots += slots
	return nil
}

func (m *Manager) slab(loc Loc) (*slabFile, error) {
	ci := loc.Class()
	if ci < 0 || ci >= len(m.slabs) {
		return nil, fmt.Errorf("slab: bad class %d in loc", ci)
	}
	sf := m.slabs[ci]
	if loc.Slot() >= sf.nSlots {
		return nil, fmt.Errorf("slab: slot %d out of range (class %d has %d)", loc.Slot(), ci, sf.nSlots)
	}
	return sf, nil
}

// Recover scans every slot of every slab file and calls fn for each live
// record with its location. Used to rebuild the B-tree index after a crash;
// the caller resolves duplicate keys by keeping the highest version (§6).
// Recovery I/O is charged sequentially to the clock if non-nil.
func (m *Manager) Recover(clk *simdev.Clock, fn func(Loc, Record)) error {
	for ci, sf := range m.slabs {
		sf.free = sf.free[:0]
		sf.live = 0
		size := sf.file.Size()
		sf.nSlots = uint32(size / int64(sf.slotSize))
		if clk != nil && size > 0 {
			m.dev.AccessClk(clk, simdev.OpRead, size) // one sequential scan
		}
		buf := make([]byte, sf.slotSize)
		for s := uint32(0); s < sf.nSlots; s++ {
			off := int64(s) * int64(sf.slotSize)
			if err := sf.file.ReadAt(buf, off); err != nil {
				return err
			}
			rec, err := decode(buf)
			if errors.Is(err, ErrSlotFree) {
				heap.Push(&sf.free, s)
				continue
			}
			if err != nil {
				return err
			}
			sf.live++
			fn(NewLoc(ci, s), rec)
		}
	}
	m.liveBytes = 0
	for _, sf := range m.slabs {
		m.liveBytes += int64(sf.live) * int64(sf.slotSize)
	}
	return nil
}

// SlotSize returns the slot size of the class holding loc.
func (m *Manager) SlotSize(loc Loc) int {
	ci := loc.Class()
	if ci < 0 || ci >= len(m.classes) {
		return 0
	}
	return m.classes[ci]
}

// Classes returns the configured class sizes.
func (m *Manager) Classes() []int { return append([]int(nil), m.classes...) }

// ClassSize returns the slot size of class ci (0 when out of range),
// without the defensive copy Classes makes — for per-op call sites.
func (m *Manager) ClassSize(ci int) int {
	if ci < 0 || ci >= len(m.classes) {
		return 0
	}
	return m.classes[ci]
}
