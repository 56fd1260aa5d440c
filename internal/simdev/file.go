package simdev

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// File is a named byte store on a Device. It persists across engine
// restarts (the simulation's notion of durability), so crash-recovery tests
// reopen an engine against the same device and rebuild state from its files.
//
// File separates data movement from time accounting: the Read/Write methods
// move bytes and charge capacity, while callers charge device time through
// Device.Access with whatever clock-and-batching policy fits their layer
// (e.g. the slab layer charges one page write per Put; the SST layer charges
// one large sequential write per flush).
//
// Storage is a list of fixed-size extents rather than one contiguous
// buffer: growing a file allocates new extents and never moves existing
// bytes. With a single backing slice, the append that extended a multi-MB
// slab file would periodically reallocate-and-copy the whole file — a
// multi-millisecond stall billed to whichever foreground write triggered
// the grow, which is exactly the class of latency artifact the simulation
// exists to measure honestly.
//
// Bulk writers and readers (the SST layer) skip the copy in and out of the
// extents: a writer fills extent-sized chunks from Device.Chunk and hands
// them over with AppendChunk, and a reader takes a View of a range, which is
// the extent itself unless the range spans two.
// A removed file's extents go to a bounded per-device free list that Chunk
// and ensure draw from, so a steady stream of table rewrites allocates and
// zeroes no extent.
type File struct {
	dev  *Device
	name string

	mu      sync.RWMutex
	size    int64
	extents [][]byte    // in-memory storage when back == nil
	back    BackingFile // real storage when the device has a Backing

	// pcID is 1 + the file's id in the page cache that last touched it
	// through PageCache.TouchFile, 0 before any; the cache checks it.
	pcID atomic.Int32
}

// extentBytes is the file extent size. Slab files grow in 64 KiB steps and
// SSTs flush in one append, so 256 KiB keeps the extent count small while
// bounding any single allocation.
const extentBytes = 256 << 10

// maxFreeExtents bounds a device's free list of recycled extents (16 MiB):
// room for the tables of a few concurrent merge rounds, each of which draws
// its output's extents before its inputs' extents come back.
const maxFreeExtents = 64

// Chunk returns an extent-sized buffer with UNDEFINED contents — the most
// recently recycled extent when the free list holds one. The caller fills it
// and gives it to File.AppendChunk.
func (d *Device) Chunk() []byte {
	d.freeMu.Lock()
	if n := len(d.freeExts); n > 0 {
		c := d.freeExts[n-1]
		d.freeExts[n-1] = nil
		d.freeExts = d.freeExts[:n-1]
		d.freeMu.Unlock()
		return c
	}
	d.freeMu.Unlock()
	return make([]byte, extentBytes)
}

// recycle puts extent-sized buffers nobody references any more on the free
// list; what does not fit under maxFreeExtents is left to the GC.
func (d *Device) recycle(exts ...[]byte) {
	d.freeMu.Lock()
	for _, e := range exts {
		if len(d.freeExts) == maxFreeExtents {
			break
		}
		if len(e) == extentBytes {
			d.freeExts = append(d.freeExts, e)
		}
	}
	d.freeMu.Unlock()
}

// ensure grows the extent list (zero-filled) to cover n bytes. Caller
// holds f.mu. Truncate and Append promise zero fill (slab free-slot headers
// depend on it), so a recycled extent is cleared before it backs them.
func (f *File) ensure(n int64) {
	need := int((n + extentBytes - 1) / extentBytes)
	for len(f.extents) < need {
		ext := f.dev.Chunk()
		clear(ext)
		f.extents = append(f.extents, ext)
	}
}

// readLocked copies [off, off+len(buf)) into buf. Caller holds f.mu and
// has bounds-checked.
func (f *File) readLocked(buf []byte, off int64) {
	for len(buf) > 0 {
		ext := f.extents[off/extentBytes]
		n := copy(buf, ext[off%extentBytes:])
		buf = buf[n:]
		off += int64(n)
	}
}

// writeLocked copies data into [off, off+len(data)). Caller holds f.mu and
// has bounds-checked; extents must already cover the range.
func (f *File) writeLocked(data []byte, off int64) {
	for len(data) > 0 {
		ext := f.extents[off/extentBytes]
		n := copy(ext[off%extentBytes:], data)
		data = data[n:]
		off += int64(n)
	}
}

// CreateFile creates an empty file. It fails if the name exists.
func (d *Device) CreateFile(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("simdev: file %q already exists on %s", name, d.params.Name)
	}
	f := &File{dev: d, name: name}
	if d.backing != nil {
		bf, err := d.backing.Create(name)
		if err != nil {
			return nil, err
		}
		f.back = bf
	}
	d.files[name] = f
	return f, nil
}

// NextFileName returns a device-unique generated file name with the prefix.
func (d *Device) NextFileName(prefix string) string {
	d.mu.Lock()
	d.seq++
	n := d.seq
	d.mu.Unlock()
	return fmt.Sprintf("%s-%06d", prefix, n)
}

// OpenFile returns the named file, or an error if absent.
func (d *Device) OpenFile(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("simdev: file %q not found on %s", name, d.params.Name)
	}
	return f, nil
}

// RemoveFile deletes a file and releases its capacity.
func (d *Device) RemoveFile(name string) error {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("simdev: file %q not found on %s", name, d.params.Name)
	}
	delete(d.files, name)
	backing := d.backing
	d.mu.Unlock()
	f.mu.Lock()
	n := f.size
	f.size = 0
	// Whoever could still read the file holds no View of it by now (an SST
	// goes with its last manifest reference), so its extents are free to
	// back the next file.
	d.recycle(f.extents...)
	f.extents = nil
	if f.back != nil {
		f.back.Close()
		f.back = nil
		backing.Remove(name)
	}
	f.mu.Unlock()
	d.release(n)
	return nil
}

// ListFiles returns the names of all files on the device, sorted. Recovery
// scans use this to discover slabs, SSTs, and manifests.
func (d *Device) ListFiles() []string {
	d.mu.Lock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	d.mu.Unlock()
	sort.Strings(names)
	return names
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the file's current length in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size
}

// Truncate grows the file to n bytes (zero-filled), reserving capacity.
// Slab files preallocate their full extent this way. Shrinking is not
// supported; n smaller than the current size is a no-op.
func (f *File) Truncate(n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	grow := n - f.size
	if grow <= 0 {
		return nil
	}
	if err := f.dev.allocate(grow); err != nil {
		return err
	}
	if f.back != nil {
		if err := f.back.Truncate(n); err != nil {
			f.dev.release(grow)
			return err
		}
	} else {
		f.ensure(n)
	}
	f.size = n
	return nil
}

// Append adds data to the end of the file and returns the offset where it
// was written. It reserves capacity and fails when the device is full.
func (f *File) Append(data []byte) (off int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.dev.allocate(int64(len(data))); err != nil {
		return 0, err
	}
	off = f.size
	if f.back != nil {
		if err := f.back.WriteAt(data, off); err != nil {
			f.dev.release(int64(len(data)))
			return 0, err
		}
	} else {
		f.ensure(off + int64(len(data)))
		f.writeLocked(data, off)
	}
	f.size = off + int64(len(data))
	return off, nil
}

// AppendChunk appends chunk[:n] to the file and takes ownership of chunk,
// which must come from Device.Chunk. An in-memory file adopts it as its next
// extent with no copy (zeroing the unwritten tail, so the zero-fill promise
// holds for this file too); a backed file writes it with one WriteAt and
// recycles it. Chunks tile the file: every chunk but a file's last is full,
// so the file's size must be a whole number of extents on entry.
func (f *File) AppendChunk(chunk []byte, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(chunk) != extentBytes || n <= 0 || n > extentBytes || f.size%extentBytes != 0 {
		return fmt.Errorf("simdev: AppendChunk of %d/%d bytes at size %d of %q breaks extent tiling",
			n, len(chunk), f.size, f.name)
	}
	if err := f.dev.allocate(int64(n)); err != nil {
		f.dev.recycle(chunk)
		return err
	}
	if f.back != nil {
		err := f.back.WriteAt(chunk[:n], f.size)
		f.dev.recycle(chunk)
		if err != nil {
			f.dev.release(int64(n))
			return err
		}
	} else {
		clear(chunk[n:])
		f.extents = append(f.extents, chunk)
	}
	f.size += int64(n)
	return nil
}

// WriteAt overwrites len(data) bytes at off. The range must lie within the
// file's current size (in-place slab updates never extend the file).
func (f *File) WriteAt(data []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off+int64(len(data)) > f.size {
		return fmt.Errorf("simdev: WriteAt [%d,%d) out of range for %q (size %d)",
			off, off+int64(len(data)), f.name, f.size)
	}
	if f.back != nil {
		return f.back.WriteAt(data, off)
	}
	f.writeLocked(data, off)
	return nil
}

// ReadAt fills buf from offset off. Short reads return an error; callers
// always know exact object extents from their indices.
func (f *File) ReadAt(buf []byte, off int64) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 || off+int64(len(buf)) > f.size {
		return fmt.Errorf("simdev: ReadAt [%d,%d) out of range for %q (size %d)",
			off, off+int64(len(buf)), f.name, f.size)
	}
	if f.back != nil {
		return f.back.ReadAt(buf, off)
	}
	f.readLocked(buf, off)
	return nil
}

// View returns [off, off+n) as one read-only slice. When the file is in
// memory and the range lies inside one extent, the slice is the file's own
// storage: no copy, valid until the file is removed or the range is
// overwritten — so only for immutable files whose removal the caller
// excludes (an SST under a manifest reference). Otherwise — a backed file,
// or a range across two extents — the range is copied into *buf (grown as
// needed, reused otherwise; a nil buf copies into a fresh buffer), and the
// copy is valid until the caller reuses *buf. View never makes *buf alias the
// file, so a buffer passed back in is never written over the file's storage.
func (f *File) View(off, n int64, buf *[]byte) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 || n < 0 || off+n > f.size {
		return nil, fmt.Errorf("simdev: View [%d,%d) out of range for %q (size %d)",
			off, off+n, f.name, f.size)
	}
	if i := off % extentBytes; f.back == nil && n > 0 && i+n <= extentBytes {
		return f.extents[off/extentBytes][i : i+n : i+n], nil
	}
	if buf == nil {
		buf = new([]byte)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if f.back != nil {
		return b, f.back.ReadAt(b, off)
	}
	f.readLocked(b, off)
	return b, nil
}

// Sync flushes the file's backing store to stable storage. It is a no-op
// for in-memory files: the simulation's durability is the process's
// lifetime. Checkpoints fsync slab files through this.
func (f *File) Sync() error {
	f.mu.RLock()
	back := f.back
	f.mu.RUnlock()
	if back == nil {
		return nil
	}
	return back.Sync()
}

// Device returns the device holding this file.
func (f *File) Device() *Device { return f.dev }
